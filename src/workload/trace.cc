#include "workload/trace.h"

#include <istream>
#include <ostream>
#include <sstream>

#include "simkit/check.h"

namespace chameleon::workload {

Trace::Trace(std::vector<Request> requests) : requests_(std::move(requests))
{
    for (std::size_t i = 1; i < requests_.size(); ++i) {
        CHM_CHECK(requests_[i].arrival >= requests_[i - 1].arrival,
                  "trace must be arrival-ordered");
    }
}

sim::SimTime
Trace::duration() const
{
    return requests_.empty() ? 0 : requests_.back().arrival;
}

double
Trace::meanRps() const
{
    if (requests_.size() < 2 || duration() == 0)
        return 0.0;
    return static_cast<double>(requests_.size()) / sim::toSeconds(duration());
}

void
Trace::append(const Request &r)
{
    CHM_CHECK(requests_.empty() || r.arrival >= requests_.back().arrival,
              "trace must be arrival-ordered");
    requests_.push_back(r);
}

void
Trace::saveCsv(std::ostream &out) const
{
    out << "id,arrival_us,input_tokens,output_tokens,adapter,tenant\n";
    for (const auto &r : requests_) {
        out << r.id << ',' << r.arrival << ',' << r.inputTokens << ','
            << r.outputTokens << ',' << r.adapter << ',' << r.tenant << '\n';
    }
}

std::optional<Trace>
Trace::loadCsv(std::istream &in, std::string *error)
{
    std::string line;
    std::getline(in, line); // header
    std::vector<Request> reqs;
    for (int number = 2; std::getline(in, line); ++number) {
        if (line.empty())
            continue;
        std::istringstream ss(line);
        Request r;
        char comma;
        ss >> r.id >> comma >> r.arrival >> comma >> r.inputTokens >> comma >>
            r.outputTokens >> comma >> r.adapter;
        const bool negative = r.arrival < 0 || r.inputTokens < 0 ||
                              r.outputTokens < 0 ||
                              r.adapter < model::kNoAdapter;
        const char *problem =
            ss.fail() || negative ? "malformed trace line"
            : !reqs.empty() && r.arrival < reqs.back().arrival
                ? "arrival before the previous line's"
                : nullptr;
        if (problem != nullptr) {
            *error = "line " + std::to_string(number) + ": " + problem +
                     ": " + line;
            return std::nullopt;
        }
        // Optional trailing tenant column; pre-tenancy traces omit it.
        if (!(ss >> comma >> r.tenant))
            r.tenant = kAnonymousTenant;
        reqs.push_back(r);
    }
    return Trace(std::move(reqs));
}

} // namespace chameleon::workload
