/**
 * @file
 * The shared entry point of ddsim's command-line binaries.
 */

#ifndef DDSIM_UTIL_MAIN_GUARD_HH_
#define DDSIM_UTIL_MAIN_GUARD_HH_

#include <cstdio>
#include <cstring>
#include <exception>

namespace ddsim {

/**
 * Run a binary's real main, @p body, and turn any exception escaping
 * it (a mistyped flag's ConfigError, an unknown workload's
 * FatalError, ...) into one "<prog>: failed: <message>" line on
 * stderr and exit status 2, instead of std::terminate and SIGABRT.
 * fatal() and raise() have already printed the typed message.
 *
 *   int main(int argc, char **argv)
 *   { return ddsim::guardedMain(argc, argv, runMain); }
 */
inline int
guardedMain(int argc, char **argv, int (*body)(int, char **))
{
    const char *prog = argc > 0 ? argv[0] : "ddsim";
    if (const char *slash = std::strrchr(prog, '/'))
        prog = slash + 1;
    try {
        return body(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: failed: %s\n", prog, e.what());
    } catch (...) {
        std::fprintf(stderr, "%s: failed: unknown exception\n", prog);
    }
    return 2;
}

} // namespace ddsim

#endif // DDSIM_UTIL_MAIN_GUARD_HH_
