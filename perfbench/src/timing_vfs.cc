#include "timing_vfs.hh"

#include <thread>

namespace perfbench {

using ddsim::io::realFs;

template <typename Fn>
double
TimingVfs::timed(const char *name, Fn &&fn)
{
    int id = tracer.begin(name);
    Clock::time_point t0 = Clock::now();
    try {
        fn();
    } catch (...) {
        tracer.end(id);
        throw;
    }
    double s = secondsSince(t0);
    tracer.end(id);
    ++counters.ops;
    return s;
}

void
TimingVfs::delay() const
{
    if (syncDelayMs > 0)
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(syncDelayMs));
}

void
TimingVfs::writeBytes(const std::string &path, const std::string &bytes)
{
    counters.writeSeconds +=
        timed("io.write", [&] { realFs().writeBytes(path, bytes); });
    counters.bytesWritten += bytes.size();
}

void
TimingVfs::syncFile(const std::string &path)
{
    counters.fsyncSeconds += timed("io.fsync", [&] {
        delay();
        realFs().syncFile(path);
    });
    ++counters.fsyncs;
}

void
TimingVfs::syncDir(const std::string &dir)
{
    counters.fsyncSeconds += timed("io.fsync", [&] {
        delay();
        realFs().syncDir(dir);
    });
    ++counters.fsyncs;
}

bool
TimingVfs::renameFile(const std::string &src, const std::string &dst)
{
    bool ok = false;
    counters.renameSeconds += timed(
        "io.rename", [&] { ok = realFs().renameFile(src, dst); });
    ++counters.renames;
    return ok;
}

void
TimingVfs::removeFile(const std::string &path)
{
    timed("io.remove", [&] { realFs().removeFile(path); });
}

void
TimingVfs::makeDirs(const std::string &path)
{
    timed("io.mkdir", [&] { realFs().makeDirs(path); });
}

void
TimingVfs::touchFile(const std::string &path)
{
    timed("io.touch", [&] { realFs().touchFile(path); });
}

std::string
TimingVfs::readFile(const std::string &path)
{
    std::string out;
    counters.readSeconds +=
        timed("io.read", [&] { out = realFs().readFile(path); });
    return out;
}

std::vector<std::string>
TimingVfs::listDir(const std::string &dir)
{
    std::vector<std::string> out;
    counters.readSeconds +=
        timed("io.list", [&] { out = realFs().listDir(dir); });
    return out;
}

bool
TimingVfs::exists(const std::string &path)
{
    bool out = false;
    timed("io.stat", [&] { out = realFs().exists(path); });
    return out;
}

double
TimingVfs::fileAgeSeconds(const std::string &path)
{
    double out = 0;
    timed("io.stat", [&] { out = realFs().fileAgeSeconds(path); });
    return out;
}

} // namespace perfbench
