#include "common/config.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace simr
{

int64_t
envInt(const char *name, int64_t fallback, int64_t min)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    char *end = nullptr;
    errno = 0;
    const long long x = std::strtoll(v, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(v[0])) || *end != '\0' ||
        errno == ERANGE || x < min) {
        std::fprintf(stderr, "%s: expected an integer >= %lld, got '%s'\n",
                     name, static_cast<long long>(min), v);
        std::exit(2);
    }
    return x;
}

bool
onlyFlag(int argc, char **argv, const char *flag)
{
    for (int i = 1; i < argc; ++i) {
        if (i > 1 || std::strcmp(argv[i], flag) != 0) {
            std::fprintf(stderr, "unexpected argument '%s'\nusage: %s [%s]\n",
                         argv[i], argv[0], flag);
            std::exit(2);
        }
    }
    return argc > 1;
}

RunScale
RunScale::fromEnv()
{
    RunScale s;
    s.requests = envInt("SIMR_REQUESTS", s.requests, 1);
    s.timingRequests = envInt("SIMR_TIMING_REQUESTS", s.timingRequests, 1);
    s.seed = static_cast<uint64_t>(
        envInt("SIMR_SEED", static_cast<int64_t>(s.seed)));
    return s;
}

} // namespace simr
