/**
 * @file
 * Result identity: the one definition of "the same result".
 *
 * A result renders into ordered key -> value text records (integers in
 * decimal, doubles as %.17g, hashes in hex), so two results are
 * identical exactly when their records are. The golden results gate
 * pins records in tests/golden/results.txt; the determinism gates diff
 * a reference run's records against a candidate's and print the
 * differing keys. Records cover every modeled number a result reports
 * and no engine diagnostic (CoreResult::skippedCycles / skipJumps,
 * ClusterResult::pdes): the gates compare runs whose engines differ.
 */

#ifndef SIMR_SIMR_RECORDS_H
#define SIMR_SIMR_RECORDS_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "obs/journey.h"
#include "simr/runner.h"
#include "sys/cluster.h"

namespace simr
{

/** Ordered key -> value records; the golden file's line order. */
class Records
{
  public:
    void u64(const std::string &key, uint64_t v);
    void f64(const std::string &key, double v);
    void hex(const std::string &key, uint64_t v);
    /** A pre-rendered value (a golden file line). */
    void text(const std::string &key, std::string v);

    const std::vector<std::pair<std::string, std::string>> &
    all() const
    {
        return rows_;
    }

  private:
    std::vector<std::pair<std::string, std::string>> rows_;
};

/** Render a result under `prefix` (keys are prefix + field name). */
void record(Records &out, const std::string &prefix, const TimingRun &r);
void record(Records &out, const std::string &prefix,
            const simt::SimtStats &s);
void record(Records &out, const std::string &prefix,
            const sys::SysResult &r);
void record(Records &out, const std::string &prefix,
            const sys::ClusterResult &r);
/** Per journey: its flags and a hash of its causal event chain. */
void record(Records &out, const std::string &prefix,
            const std::vector<obs::Journey> &js);

template <typename T>
Records
recordsOf(const T &x)
{
    Records r;
    record(r, "", x);
    return r;
}

/** One differing key: missing from `got` (empty got), unexpected in it
 *  (empty want), or with another value. */
struct RecordDiff
{
    std::string key;
    std::string want;
    std::string got;
};

/** Keyed diff: `want` order, then keys only `got` has. */
std::vector<RecordDiff> compare(const Records &want, const Records &got);

/** Print `what` and up to `limit` diff lines; returns diffs.size(). */
size_t printDiff(FILE *out, const std::string &what,
                 const std::vector<RecordDiff> &diffs, size_t limit = 20);

/** True when `want` and `got` render identically, else prints the
 *  diff under `what`. */
template <typename T>
bool
identicalRecords(FILE *out, const std::string &what, const T &want,
                 const T &got)
{
    return printDiff(out, what, compare(recordsOf(want), recordsOf(got))) ==
        0;
}

} // namespace simr

#endif // SIMR_SIMR_RECORDS_H
