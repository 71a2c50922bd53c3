#include "tracer.hh"

#include <sstream>

#include "util/file_claim.hh"
#include "util/json.hh"

namespace perfbench {

std::vector<double>
Tracer::selfSeconds() const
{
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].seconds();
    for (const Span &s : spans)
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.seconds();
    return self;
}

double
Tracer::totalSeconds(const std::string &name) const
{
    double t = 0;
    for (const Span &s : spans)
        if (s.name == name)
            t += s.seconds();
    return t;
}

double
Tracer::totalCount(const std::string &name, const std::string &key) const
{
    double t = 0;
    for (const Span &s : spans)
        if (s.name == name)
            for (const auto &[k, v] : s.counts)
                if (k == key)
                    t += v;
    return t;
}

std::map<std::string, double>
Tracer::layerSelfSeconds() const
{
    std::vector<double> self = selfSeconds();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].name.substr(0, spans[i].name.find('.'))] += self[i];
    return out;
}

void
Tracer::writeJson(const std::string &path) const
{
    std::vector<double> self = selfSeconds();
    const Clock::time_point t0 =
        spans.empty() ? Clock::time_point{} : spans.front().start;
    auto us = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - t0).count();
    };
    std::ostringstream os;
    ddsim::JsonWriter w(os, 1);
    w.beginObject();
    w.key("layer_self_seconds");
    w.beginObject();
    for (const auto &[layer, s] : layerSelfSeconds())
        w.field(layer, s);
    w.endObject();
    w.key("spans");
    w.beginArray();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        w.beginObject();
        w.field("id", static_cast<std::uint64_t>(i));
        w.field("name", s.name);
        w.field("parent", static_cast<std::int64_t>(s.parent));
        w.field("start_us", us(s.start));
        w.field("end_us", us(s.end));
        w.field("self_us", self[i] * 1e6);
        if (!s.counts.empty()) {
            w.key("counts");
            w.beginObject();
            for (const auto &[k, v] : s.counts)
                w.field(k, v);
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
    ddsim::writeFileTextAtomic(path, os.str());
}

} // namespace perfbench
