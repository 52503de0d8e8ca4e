// Registry of the transport's reserved tag space.
//
// Application channel tags are assigned from 0 upward, independently per
// (source, destination) rank pair (paper: tag routing numbered per pair).
// The transport reserves the negative tags below for protocol traffic;
// before this registry existed each reserved value lived at its point of
// use, and nothing stopped user code from passing a negative tag that
// aliased ack traffic straight through the proxy. Every send-side entry
// point (Comm::isend, Reliable::send) validates against this table, so a
// collision is a named error at send time instead of a mis-routed frame.
#pragma once

#include <string>

#include "common/error.hpp"

namespace pulsarqr::prt::net {

/// Tag of a pure (non-piggybacked) ack frame emitted by the Reliable
/// protocol: empty payload, never sequenced, consumed by the peer endpoint
/// and never routed to a channel.
constexpr int kPureAckTag = -1;

/// Application channel tags are numbered from here upward.
constexpr int kFirstUserTag = 0;

constexpr bool is_reserved_tag(int tag) { return tag == kPureAckTag; }

/// Name of a reserved tag's owner, or nullptr for a non-reserved value.
constexpr const char* reserved_tag_name(int tag) {
  return tag == kPureAckTag ? "reliable-protocol pure ack" : nullptr;
}

/// Validate a tag supplied for application (channel) traffic: it must sit
/// in the user tag space. Throws pulsarqr::Error naming the reserved owner
/// (or just the offending value) otherwise.
inline void require_user_tag(int tag, const char* where) {
  if (tag >= kFirstUserTag) return;
  const char* owner = reserved_tag_name(tag);
  throw Error(std::string(where) + ": tag " + std::to_string(tag) +
              (owner != nullptr
                   ? std::string(" is reserved for ") + owner + " traffic"
                   : " is negative; application tags are numbered from " +
                         std::to_string(kFirstUserTag)));
}

}  // namespace pulsarqr::prt::net
