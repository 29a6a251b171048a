/**
 * @file
 * Abstract request-acceptance interface between the cache hierarchy and
 * a memory channel. The LLC routes through a MemPort instead of a
 * concrete MemoryController so it can be driven without one: System
 * hands it the controllers themselves, while tests and standalone
 * layer benchmarks substitute stub ports.
 */

#ifndef CCSIM_CTRL_PORT_HH
#define CCSIM_CTRL_PORT_HH

#include "ctrl/request.hh"

namespace ccsim::ctrl {

class MemPort
{
  public:
    virtual ~MemPort() = default;

    /** True if a request of `type` can be accepted this cycle. */
    virtual bool canAccept(ReqType type) const = 0;

    /**
     * Hand over a request (caller must have checked canAccept in the
     * same cycle with no intervening controller activity). Reads
     * complete through `req.callback`; writes are fire-and-forget.
     */
    virtual void enqueue(Request req) = 0;
};

} // namespace ccsim::ctrl

#endif // CCSIM_CTRL_PORT_HH
