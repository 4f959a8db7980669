// Verified decode with error location (byzantine-resilient fallback).
//
// Reed-Solomon erasure decoding is oblivious to corruption: feed it m
// segments of which one was tampered with and it happily produces wrong
// bytes. When too few tag-verified segments survive, the decoder below
// recovers the original message anyway — as long as some m of the
// supplied segments are intact — by bounded subset search validated
// against the whole-message digest a tag-verified segment carried:
//
//   1. try the plain decode over everything supplied (the common case:
//      nothing was corrupted);
//   2. otherwise enumerate m-subsets of the supplied segments in
//      deterministic (index-lexicographic) order, decode each, and accept
//      the first candidate the validator confirms;
//   3. re-encode the accepted message and compare against every supplied
//      segment to identify exactly which ones were corrupted, so the
//      caller can attribute blame to their arrival paths.
//
// The search is bounded by `max_subsets` decode attempts: with s corrupted
// segments out of c supplied, an intact subset exists among C(c, m)
// combinations, and for the small (m, n) the protocols use the bound is
// generous. The validator is trusted; this function never returns a
// message the validator did not confirm.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "erasure/codec.hpp"

namespace p2panon::erasure {

struct VerifiedDecode {
  Bytes message;
  /// Indices (Segment::index) of supplied segments proven corrupted by
  /// re-encoding the accepted message. Empty when everything was intact.
  std::vector<std::uint32_t> corrupted_indices;
  /// Decode attempts spent (1 = the plain decode succeeded).
  std::size_t subsets_tried = 0;
};

/// Returns true when `message` is the authentic original (e.g. its digest
/// matches the one carried by the segments' auth trailers).
using DecodeValidator = std::function<bool(ByteView message)>;

std::optional<VerifiedDecode> verified_decode(const Codec& codec,
                                              std::span<const Segment> segments,
                                              std::size_t original_size,
                                              const DecodeValidator& validate,
                                              std::size_t max_subsets);

}  // namespace p2panon::erasure
