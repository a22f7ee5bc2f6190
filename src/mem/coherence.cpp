#include "mem/coherence.h"

#include "common/logging.h"

namespace spt {

MesiDirectory::MesiDirectory(unsigned num_agents)
    : num_agents_(num_agents)
{
    SPT_ASSERT(num_agents_ <= 32, "directory supports up to 32 agents");
    gets_ = stats_.counter("gets");
    getm_ = stats_.counter("getm");
    puts_ = stats_.counter("puts");
    owner_writebacks_ = stats_.counter("owner_writebacks");
    invalidations_sent_ = stats_.counter("invalidations_sent");
    dirty_writebacks_ = stats_.counter("dirty_writebacks");
}

void
MesiDirectory::checkAgent(unsigned agent) const
{
    SPT_ASSERT(agent < num_agents_, "agent id out of range");
}

MesiDirectory::Response
MesiDirectory::getShared(unsigned agent, uint64_t line_addr)
{
    checkAgent(agent);
    stats_.inc(gets_);
    DirEntry &e = dir_[line_addr];
    Response resp;
    const uint32_t bit = 1u << agent;
    if (e.sharers == 0) {
        // Unshared: grant Exclusive.
        e.sharers = bit;
        e.owner = static_cast<int>(agent);
        e.modified = false;
        resp.grant = MesiState::kExclusive;
        return resp;
    }
    if (e.owner >= 0 && e.owner != static_cast<int>(agent)) {
        // Downgrade the owner to Shared; it supplies the data.
        resp.from_owner = true;
        if (e.modified)
            stats_.inc(owner_writebacks_);
        e.modified = false;
        e.owner = -1;
    }
    e.sharers |= bit;
    resp.grant = MesiState::kShared;
    if (e.sharers == bit && e.owner == static_cast<int>(agent)) {
        // Re-request by the sole owner keeps its state.
        resp.grant = e.modified ? MesiState::kModified
                                : MesiState::kExclusive;
    }
    return resp;
}

MesiDirectory::Response
MesiDirectory::getModified(unsigned agent, uint64_t line_addr)
{
    checkAgent(agent);
    stats_.inc(getm_);
    DirEntry &e = dir_[line_addr];
    Response resp;
    const uint32_t bit = 1u << agent;
    if (e.owner >= 0 && e.owner != static_cast<int>(agent)) {
        resp.from_owner = true;
        if (e.modified)
            stats_.inc(owner_writebacks_);
    }
    // Invalidate all other sharers.
    for (unsigned a = 0; a < num_agents_; ++a) {
        if (a != agent && (e.sharers & (1u << a))) {
            resp.invalidated.push_back(a);
            stats_.inc(invalidations_sent_);
        }
    }
    e.sharers = bit;
    e.owner = static_cast<int>(agent);
    e.modified = true;
    resp.grant = MesiState::kModified;
    return resp;
}

void
MesiDirectory::putLine(unsigned agent, uint64_t line_addr)
{
    checkAgent(agent);
    auto it = dir_.find(line_addr);
    if (it == dir_.end())
        return;
    DirEntry &e = it->second;
    e.sharers &= ~(1u << agent);
    if (e.owner == static_cast<int>(agent)) {
        if (e.modified)
            stats_.inc(dirty_writebacks_);
        e.owner = -1;
        e.modified = false;
    }
    if (e.sharers == 0)
        dir_.erase(it);
    stats_.inc(puts_);
}

MesiState
MesiDirectory::agentState(unsigned agent, uint64_t line_addr) const
{
    auto it = dir_.find(line_addr);
    if (it == dir_.end())
        return MesiState::kInvalid;
    const DirEntry &e = it->second;
    if (!(e.sharers & (1u << agent)))
        return MesiState::kInvalid;
    if (e.owner == static_cast<int>(agent))
        return e.modified ? MesiState::kModified
                          : MesiState::kExclusive;
    return MesiState::kShared;
}

} // namespace spt
