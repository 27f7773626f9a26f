/**
 * @file
 * Batch-size tuning lab (paper Section III-B3, Fig. 15).
 *
 * For a chosen microservice, sweeps the RPU batch size and reports the
 * three quantities the tuning decision trades off: SIMT efficiency
 * (bigger batches amortize more), L1 MPKI (bigger batches pressure the
 * cache), and the resulting service latency and requests/joule from
 * the timing model. Reproduces the paper's rule of thumb: batch 32 for
 * most services, batch 8 for the data-intensive leaves.
 *
 * Run:  ./build/examples/batch_tuning [service]
 */

#include <cstdio>
#include <string>

#include "common/table.h"
#include "simr/cachestudy.h"
#include "simr/runner.h"

using namespace simr;

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "search-leaf";
    auto svc = svc::buildService(name);
    if (!svc) {
        std::fprintf(stderr, "unknown service '%s'; options:\n",
                     name.c_str());
        for (const auto &n : svc::serviceNames())
            std::fprintf(stderr, "  %s\n", n.c_str());
        return 1;
    }

    std::printf("batch tuning for '%s' (tuned batch in traits: %d)\n\n",
                name.c_str(), svc->traits().tunedBatch);

    Table t("batch-size sweep on the RPU");
    t.header({"batch", "SIMT eff", "L1 MPKI", "latency (us)",
              "req/joule"});
    for (int bs : {4, 8, 16, 32}) {
        // One lockstep pass gives both the SIMT efficiency and the MPKI.
        CacheStudyOptions copt;
        copt.requests = 640;
        auto cache = studyRpuCache(*svc, bs, copt);

        TimingOptions topt;
        topt.requests = 512;
        topt.batchOverride = bs;
        auto run = runTiming(*svc, core::makeRpuConfig(), topt);

        t.row({std::to_string(bs), Table::pct(cache.simt.efficiency()),
               Table::num(cache.mpki(), 1),
               Table::num(run.core.meanLatencyUs(), 2),
               Table::num(run.reqPerJoule(), 0)});
    }
    t.print();

    std::printf("reading the table: efficiency rises with batch size "
                "while MPKI rises for data-intensive services; the\n"
                "tuned batch is the largest size whose footprint still "
                "fits the 256KB L1 (8KB/thread).\n");
    return 0;
}
