/**
 * @file
 * Request trace container with CSV persistence.
 */

#ifndef CHAMELEON_WORKLOAD_TRACE_H
#define CHAMELEON_WORKLOAD_TRACE_H

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "workload/request.h"

namespace chameleon::workload {

/** An arrival-ordered sequence of requests. */
class Trace
{
  public:
    Trace() = default;
    explicit Trace(std::vector<Request> requests);

    const std::vector<Request> &requests() const & { return requests_; }
    /** No view into a temporary: `for (r : gen.generate().requests())`
     * would iterate a destroyed Trace. Bind the trace to a name first. */
    const std::vector<Request> &requests() const && = delete;
    std::size_t size() const { return requests_.size(); }
    bool empty() const { return requests_.empty(); }
    const Request &operator[](std::size_t i) const { return requests_[i]; }

    /** Trace duration (last arrival). */
    sim::SimTime duration() const;

    /** Mean offered load in requests per second. */
    double meanRps() const;

    /** Append a request; must not violate arrival ordering. */
    void append(const Request &r);

    /** Write as CSV: id,arrival_us,input,output,adapter,tenant. */
    void saveCsv(std::ostream &out) const;

    /**
     * Parse the CSV format written by saveCsv; a row without the tenant
     * column is tenant 0. A malformed or out-of-order row gives nullopt,
     * with `*error` naming its line.
     */
    static std::optional<Trace> loadCsv(std::istream &in,
                                        std::string *error);

  private:
    std::vector<Request> requests_;
};

} // namespace chameleon::workload

#endif // CHAMELEON_WORKLOAD_TRACE_H
