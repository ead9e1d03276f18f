#include "serve/completion.hpp"

#include <cassert>
#include <stdexcept>
#include <thread>

namespace mev::serve {

CompletionArena::CompletionArena(std::size_t block_slots)
    : block_slots_(block_slots == 0 ? 1 : block_slots) {
  grow();  // start with one block so the first submissions never lock
}

CompletionArena::~CompletionArena() {
  // No operations can be in flight at destruction (ScoreFuture handles
  // share ownership of the arena), so plain deletes suffice.
  for (auto& published : blocks_)
    delete[] published.load(std::memory_order_acquire);
}

CompletionArena::Slot& CompletionArena::slot(
    std::uint32_t index) const noexcept {
  Slot* block =
      blocks_[index / block_slots_].load(std::memory_order_acquire);
  return block[index % block_slots_];
}

void CompletionArena::grow() {
  std::lock_guard<std::mutex> lock(grow_mutex_);
  // Another thread may have grown while we waited for the lock; a free
  // slot showing up means its block is already published. Only the low
  // word is the link — the high word is the ABA tag and never resets.
  if (static_cast<std::uint32_t>(
          free_head_.load(std::memory_order_acquire)) != 0)
    return;

  const std::size_t allocated = allocated_.load(std::memory_order_relaxed);
  const std::size_t block_index = allocated / block_slots_;
  if (block_index >= kMaxBlocks)
    throw std::length_error(
        "CompletionArena: slot limit reached (too many unconsumed results)");

  Slot* block = new Slot[block_slots_];
  const std::uint32_t base = static_cast<std::uint32_t>(allocated);
  for (std::size_t i = 0; i < block_slots_; ++i) {
    block[i].state.store(pack(0, kPending), std::memory_order_relaxed);
    // Chain the block internally: slot i -> slot i+1, last -> (stitched
    // onto the current freelist head below).
    block[i].next_free.store(
        i + 1 < block_slots_ ? base + static_cast<std::uint32_t>(i) + 2 : 0,
        std::memory_order_relaxed);
  }
  blocks_[block_index].store(block, std::memory_order_release);
  allocated_.store(allocated + block_slots_, std::memory_order_relaxed);

  // Splice [base, base + block_slots_) onto the freelist in one CAS.
  Slot& last = block[block_slots_ - 1];
  std::uint64_t head = free_head_.load(std::memory_order_relaxed);
  for (;;) {
    last.next_free.store(static_cast<std::uint32_t>(head),
                         std::memory_order_relaxed);
    const std::uint64_t tag = (head >> 32) + 1;
    if (free_head_.compare_exchange_weak(
            head, (tag << 32) | (base + 1), std::memory_order_release,
            std::memory_order_relaxed))
      return;
  }
}

CompletionTicket CompletionArena::acquire() {
  std::uint64_t head = free_head_.load(std::memory_order_acquire);
  for (;;) {
    // Empty = zero link in the low word (the high word is the ABA tag).
    if (static_cast<std::uint32_t>(head) == 0) {
      grow();
      head = free_head_.load(std::memory_order_acquire);
      continue;
    }
    const std::uint32_t index = static_cast<std::uint32_t>(head) - 1;
    Slot& s = slot(index);
    // Speculative: if another thread pops this node first, the tag in
    // free_head_ changes and the CAS below fails — the stale `next` is
    // never installed.
    const std::uint32_t next = s.next_free.load(std::memory_order_relaxed);
    const std::uint64_t tag = (head >> 32) + 1;
    if (free_head_.compare_exchange_weak(head, (tag << 32) | next,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      outstanding_.fetch_add(1, std::memory_order_relaxed);
      const std::uint32_t generation = static_cast<std::uint32_t>(
          s.state.load(std::memory_order_relaxed) >> 32);
      return CompletionTicket{index, generation};
    }
  }
}

void CompletionArena::release(std::uint32_t index,
                              std::uint32_t generation) noexcept {
  Slot& s = slot(index);
  // Bump the generation so any stale ticket to this slot is inert.
  s.state.store(pack(generation + 1, kPending), std::memory_order_relaxed);
  std::uint64_t head = free_head_.load(std::memory_order_relaxed);
  for (;;) {
    s.next_free.store(static_cast<std::uint32_t>(head),
                      std::memory_order_relaxed);
    const std::uint64_t tag = (head >> 32) + 1;
    if (free_head_.compare_exchange_weak(head, (tag << 32) | (index + 1),
                                         std::memory_order_release,
                                         std::memory_order_relaxed))
      break;
  }
  outstanding_.fetch_sub(1, std::memory_order_relaxed);
}

void CompletionArena::complete(CompletionTicket ticket, ScoreResult&& result) {
  Slot& s = slot(ticket.index);
  s.result = std::move(result);
  std::uint64_t expected = pack(ticket.generation, kPending);
  if (s.state.compare_exchange_strong(expected,
                                      pack(ticket.generation, kDone),
                                      std::memory_order_release,
                                      std::memory_order_acquire)) {
    s.state.notify_all();
    return;
  }
  // The handle was dropped before completion: nobody will ever read the
  // result, so recycle the slot here.
  assert(expected == pack(ticket.generation, kAbandoned));
  s.result = ScoreResult{};
  s.error = nullptr;
  release(ticket.index, ticket.generation);
}

void CompletionArena::complete_error(CompletionTicket ticket,
                                     std::exception_ptr error) {
  Slot& s = slot(ticket.index);
  s.error = std::move(error);
  std::uint64_t expected = pack(ticket.generation, kPending);
  if (s.state.compare_exchange_strong(expected,
                                      pack(ticket.generation, kDone),
                                      std::memory_order_release,
                                      std::memory_order_acquire)) {
    s.state.notify_all();
    return;
  }
  assert(expected == pack(ticket.generation, kAbandoned));
  s.result = ScoreResult{};
  s.error = nullptr;
  release(ticket.index, ticket.generation);
}

bool CompletionArena::ready(CompletionTicket ticket) const noexcept {
  return slot(ticket.index).state.load(std::memory_order_acquire) !=
         pack(ticket.generation, kPending);
}

void CompletionArena::wait(CompletionTicket ticket) const noexcept {
  const Slot& s = slot(ticket.index);
  const std::uint64_t pending = pack(ticket.generation, kPending);
  std::uint64_t observed = s.state.load(std::memory_order_acquire);
  while (observed == pending) {
    s.state.wait(observed, std::memory_order_acquire);
    observed = s.state.load(std::memory_order_acquire);
  }
}

bool CompletionArena::wait_for_ms(CompletionTicket ticket,
                                  std::uint64_t timeout_ms) const {
  // Timed waits are off the hot path (probes/tests); std::atomic::wait
  // has no timeout, so poll at millisecond granularity.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!ready(ticket)) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

ScoreResult CompletionArena::take(CompletionTicket ticket) {
  wait(ticket);
  Slot& s = slot(ticket.index);
  assert(s.state.load(std::memory_order_relaxed) ==
         pack(ticket.generation, kDone));
  ScoreResult result = std::move(s.result);
  std::exception_ptr error = std::move(s.error);
  s.result = ScoreResult{};
  s.error = nullptr;
  release(ticket.index, ticket.generation);
  if (error != nullptr) std::rethrow_exception(error);
  return result;
}

void CompletionArena::abandon(CompletionTicket ticket) noexcept {
  Slot& s = slot(ticket.index);
  std::uint64_t expected = pack(ticket.generation, kPending);
  if (s.state.compare_exchange_strong(expected,
                                      pack(ticket.generation, kAbandoned),
                                      std::memory_order_acquire,
                                      std::memory_order_acquire))
    return;  // still pending: the completer will see kAbandoned and recycle
  if (expected == pack(ticket.generation, kDone)) {
    // Already resolved: drop the unread result and recycle now.
    s.result = ScoreResult{};
    s.error = nullptr;
    release(ticket.index, ticket.generation);
  }
  // Any other state means the ticket was already consumed — nothing to do.
}

std::size_t CompletionArena::capacity() const noexcept {
  return allocated_.load(std::memory_order_relaxed);
}

std::size_t CompletionArena::outstanding() const noexcept {
  return outstanding_.load(std::memory_order_relaxed);
}

}  // namespace mev::serve
