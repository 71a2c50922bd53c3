/**
 * @file
 * In-memory span recorder for the traced benchmark run. Spans are
 * opened and closed around calls into one ddsim layer each; a span's
 * parent is whichever span was open when it began, so one run forms a
 * single tree under the root span. Counts (instructions, bytes, ops)
 * are attached at the same boundaries. Nothing is written until the
 * run ends (writeJson).
 *
 * Self time is a span's duration minus the time its children cover;
 * because children nest strictly inside their parent and never
 * overlap, the self times of all spans add up to the root's duration.
 */

#ifndef PERFBENCH_TRACER_HH_
#define PERFBENCH_TRACER_HH_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.hh"

namespace perfbench {

struct Span
{
    std::string name;   ///< "<layer>.<what>", e.g. "sim.run_replay".
    int parent = -1;
    Clock::time_point start;
    Clock::time_point end;
    std::vector<std::pair<std::string, double>> counts;

    double seconds() const
    {
        return std::chrono::duration<double>(end - start).count();
    }
};

class Tracer
{
  public:
    /** Open a span as a child of the innermost open span. */
    int
    begin(std::string name)
    {
        Span s;
        s.name = std::move(name);
        s.parent = open.empty() ? -1 : open.back();
        spans.push_back(std::move(s));
        int id = static_cast<int>(spans.size()) - 1;
        open.push_back(id);
        spans.back().start = Clock::now();
        return id;
    }

    /**
     * Close @p id, which must be the innermost open span; otherwise
     * the tree is marked broken (wellFormed() turns false). Never
     * throws, so it is safe from a destructor.
     */
    void
    end(int id)
    {
        spans[static_cast<std::size_t>(id)].end = Clock::now();
        if (open.empty() || open.back() != id)
            misnested = true;
        else
            open.pop_back();
    }

    void
    count(int id, const std::string &key, double value)
    {
        spans[static_cast<std::size_t>(id)].counts.emplace_back(key,
                                                                value);
    }

    const std::vector<Span> &all() const { return spans; }

    /** Every span closed, in strict nesting order. */
    bool wellFormed() const { return !misnested && open.empty(); }

    /** Self seconds of every span (duration minus children). */
    std::vector<double> selfSeconds() const;

    /** Total seconds / count sums of spans named @p name. */
    double totalSeconds(const std::string &name) const;
    double totalCount(const std::string &name,
                      const std::string &key) const;
    /** Self seconds summed per layer (the name's first component). */
    std::map<std::string, double> layerSelfSeconds() const;

    /** Dump spans, self times and the layer table as JSON. */
    void writeJson(const std::string &path) const;

  private:
    std::vector<Span> spans;
    std::vector<int> open;
    bool misnested = false;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &t, std::string name) : t(t), id(t.begin(std::move(name)))
    {}
    ~Scope() { t.end(id); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    void count(const std::string &key, double v) { t.count(id, key, v); }

  private:
    Tracer &t;
    int id;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH_
