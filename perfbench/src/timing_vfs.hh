/**
 * @file
 * A timing and counting io::Vfs for the traced farm run. Every
 * primitive delegates to io::realFs() inside one tracer span named
 * after the primitive ("io.fsync", "io.write", ...) and bumps the
 * matching counters, so farm I/O shows up as its own layer without
 * touching the library.
 *
 * syncDelayMs adds a fixed sleep inside every fsync (file or
 * directory), and only there: the attribution self-check injects it
 * and expects it to appear in io.fsync time and farm overhead, never
 * in simulation time.
 */

#ifndef PERFBENCH_TIMING_VFS_HH_
#define PERFBENCH_TIMING_VFS_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "io/vfs.hh"
#include "tracer.hh"

namespace perfbench {

/** Counters per primitive class. Times are seconds. */
struct IoCounters
{
    std::uint64_t ops = 0;
    std::uint64_t fsyncs = 0;
    std::uint64_t renames = 0;
    std::uint64_t bytesWritten = 0;
    double fsyncSeconds = 0;
    double writeSeconds = 0;
    double renameSeconds = 0;
    double readSeconds = 0;
};

class TimingVfs : public ddsim::io::Vfs
{
  public:
    TimingVfs(Tracer &tracer, double syncDelayMs)
        : tracer(tracer), syncDelayMs(syncDelayMs)
    {}

    void writeBytes(const std::string &path,
                    const std::string &bytes) override;
    void syncFile(const std::string &path) override;
    void syncDir(const std::string &dir) override;
    bool renameFile(const std::string &src,
                    const std::string &dst) override;
    void removeFile(const std::string &path) override;
    void makeDirs(const std::string &path) override;
    void touchFile(const std::string &path) override;
    std::string readFile(const std::string &path) override;
    std::vector<std::string> listDir(const std::string &dir) override;
    bool exists(const std::string &path) override;
    double fileAgeSeconds(const std::string &path) override;

    IoCounters counters;

  private:
    /** Time @p fn in a span named @p name; returns its seconds. */
    template <typename Fn> double timed(const char *name, Fn &&fn);
    void delay() const;

    Tracer &tracer;
    double syncDelayMs;
};

} // namespace perfbench

#endif // PERFBENCH_TIMING_VFS_HH_
