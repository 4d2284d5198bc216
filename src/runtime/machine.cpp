#include "src/runtime/machine.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "src/obs/registry.hpp"
#include "src/util/assert.hpp"

namespace acic::runtime {

namespace {

/// Epoch-based (sense-reversing) spin barrier with a fused completion
/// step: the last thread to arrive runs `completion` — the per-window
/// reduction — before releasing the others, so the reduction costs one
/// O(parties) scan per window total instead of one per thread, and the
/// min-combine needs no second barrier.  Waiters spin briefly then
/// yield; on an undersubscribed host (fewer cores than workers, e.g.
/// the single-core CI container) spinning only steals cycles from the
/// thread everyone is waiting on, so the spin budget is zero there.
///
/// Memory ordering: every arriving thread's acq_rel fetch_add on
/// `arrived_` forms a release sequence read by the last arrival, and
/// the epoch release-store / acquire-load pair publishes the completion
/// step's writes — so all pre-barrier writes happen-before all
/// post-barrier reads, on every thread.  ThreadSanitizer verifies this
/// chain in CI.
class SpinBarrier {
 public:
  template <typename Fn>
  SpinBarrier(unsigned parties, Fn&& completion)
      : parties_(parties), completion_(std::forward<Fn>(completion)) {}

  void arrive_and_wait() {
    const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      completion_();
      arrived_.store(0, std::memory_order_relaxed);
      epoch_.store(epoch + 1, std::memory_order_release);
      return;
    }
    int spins = spin_budget_;
    while (epoch_.load(std::memory_order_acquire) == epoch) {
      if (spins-- <= 0) std::this_thread::yield();
    }
  }

 private:
  const unsigned parties_;
  const std::function<void()> completion_;
  const int spin_budget_ =
      std::thread::hardware_concurrency() >= parties_ ? 256 : 0;
  std::atomic<std::uint32_t> arrived_{0};
  std::atomic<std::uint64_t> epoch_{0};
};

}  // namespace

/// A cross-node arrival buffered in its sending shard's outbox until the
/// receiving shard's owner merges it after the window barrier.  Carries
/// the seq the sender already assigned, so the receiving heap's
/// comparator alone decides the merge order — (timestamp, src node,
/// per-node sequence), independent of the order the boxes are drained.
struct Machine::Mail {
  SimTime time;
  std::uint64_t seq;
  PeId pe;
  bool charge_recv;
  Task task;
};

/// One simulated node's slice of the event loop during a parallel run:
/// its own 4-ary heap, slot store, outgoing mailboxes and stat deltas.
/// A shard is touched only by its owner thread for the whole run, except
/// for `outbox[p][d]`, which shard d's owner drains in the window after
/// the one that filled it, and `sent_mail`/`mail_min`, which the window
/// barrier's completion step folds and resets.
struct alignas(64) Machine::Shard {
  std::uint32_t node = 0;
  util::DaryHeap<Event, EventOrder> heap;
  std::vector<Task> slots;
  std::vector<std::uint32_t> free_slots;
  /// outbox[p][d]: arrivals destined to node d, double-buffered by window
  /// parity — this window's sends go to outbox[out] while d's owner
  /// drains outbox[out ^ 1], the previous window's mail.  Boxes keep
  /// their capacity across windows and runs (ParallelState persists
  /// them), so steady-state merges never reallocate.
  std::vector<std::vector<Mail>> outbox[2];
  unsigned out = 0;
  /// mail_min[d]: earliest arrival buffered for node d this window, which
  /// the barrier folds into d's published minimum.
  std::vector<SimTime> mail_min;
  /// Max event time processed on this shard — the shard-local mirror of
  /// current_time_ (identical inside a task: the executing PE's clock
  /// is always >= the current event's time on both paths).
  SimTime now = 0.0;
  /// Exclusive end of this shard's current window: min over OTHER
  /// shards' minima + lookahead, shrunk on the fly when this shard
  /// buffers a cross-node send (a reaction to mail arriving at A cannot
  /// land back here before A + lookahead).
  SimTime window_limit = 0.0;
  /// Floor other shards' windows rely on: no cross-node event created
  /// by this shard may land before (this shard's window-start heap
  /// minimum) + lookahead.  Sends satisfy it by the network model;
  /// cross-node schedule_at inside it is a causality bug (asserted).
  SimTime cross_floor = 0.0;
  /// Inter-node latency, copied per run so the send hot path never
  /// reaches back into the Machine.
  SimTime lookahead = 0.0;
  /// Set when this shard buffered cross-node mail in the current window.
  bool sent_mail = false;
  RunStats stats;
  std::int64_t ready_delta = 0;  // folded into ready_tasks_ after the run
};

/// Parallel-run scratch that outlives a single run(): shard heaps, slot
/// stores and mailboxes keep their capacity, so a serving workload that
/// calls run() per query batch stops paying setup/regrow per call.
struct Machine::ParallelState {
  std::vector<Shard> shards;
};

thread_local Machine::Shard* Machine::tls_shard_ = nullptr;

void Pe::send(PeId to, std::size_t bytes, Task task) {
  machine_->send(id_, to, bytes, std::move(task));
}

void Pe::enqueue_local(Task task) {
  // A local continuation bypasses the network entirely: it lands at the
  // back of this PE's queue at the current moment.
  machine_->schedule_at(current_time_, id_, std::move(task));
}

Machine::Machine(Topology topology, NetworkModel network)
    : topology_(topology), network_(network) {
  topology_.validate();
  ACIC_ASSERT_MSG(topology_.nodes < (1u << 16),
                  "composite event keys hold the node id in 16 bits");
  pes_.resize(topology_.num_entities());
  entity_node_.resize(topology_.num_entities());
  for (PeId p = 0; p < topology_.num_entities(); ++p) {
    pes_[p].id_ = p;
    pes_[p].machine_ = this;
    entity_node_[p] = topology_.node_of(p);
  }
  node_seq_.resize(topology_.nodes);
  // Steady-state queue depth is a small multiple of the PE count; seed the
  // backing stores so warm-up never reallocates mid-sift.
  const std::size_t hint =
      std::max<std::size_t>(1024, 4 * topology_.num_entities());
  queue_.reserve(hint);
  task_slots_.reserve(hint);
  free_slots_.reserve(hint);
}

// Parked tasks (arrivals never executed because run() hit its time limit)
// are destroyed with task_slots_.
Machine::~Machine() = default;

void Machine::set_registry(obs::Registry* registry) {
  flush_ready_sample();  // pending sample belongs to the old registry
  registry_ = registry;
  if (registry_ == nullptr) {
    obs_.reset();
    return;
  }
  obs_ = std::make_unique<obs::RuntimeCounters>(
      obs::define_runtime_counters(*registry_));
}

void Machine::send(PeId from, PeId to, std::size_t bytes, Task task) {
  ACIC_ASSERT(from < num_entities() && to < num_entities());
  Pe& sender = pes_[from];
  const Locality loc = topology_.locality(from, to);

  // The sender pays its per-message overhead now (advancing its clock if
  // it is inside a task), then the message departs.
  sender.charge(network_.send_overhead_us);
  Shard* const sh = tls_shard_;
  // Inside a task the sender's clock always dominates this max (its
  // clock was set to >= the current event's time before the task ran),
  // so the shard-local floor and the global one yield the same bits.
  const SimTime floor_now = sh != nullptr ? sh->now : current_time_;
  const SimTime departure = std::max(sender.current_time_, floor_now);
  const SimTime arrival = departure + network_.transfer_time(loc, bytes);

  if (sh != nullptr) {
    ACIC_HOT_ASSERT(entity_node_[from] == sh->node);
    ++sh->stats.messages_sent;
    sh->stats.bytes_sent += bytes;
  } else {
    ++messages_sent_;
    bytes_sent_ += bytes;
    if (active_stats_ != nullptr) {
      ++active_stats_->messages_sent;
      active_stats_->bytes_sent += bytes;
    }
    if (registry_ != nullptr) [[unlikely]] {
      registry_->add(obs_->messages(loc), from, 1, departure);
      registry_->add(obs_->bytes(loc), from, bytes, departure);
    }
  }

  // The receiver pays its per-message overhead when it picks the task up
  // (flagged on the queued task; no wrapper closure).
  push_arrival(arrival, to, std::move(task), /*charge_recv=*/true);
}

void Machine::schedule_at(SimTime time, PeId pe, Task task) {
  ACIC_ASSERT(pe < num_entities());
  push_arrival(std::max(time, 0.0), pe, std::move(task),
               /*charge_recv=*/false);
}

IdleHandlerId Machine::add_idle_handler(PeId pe, IdleHandler handler) {
  ACIC_ASSERT(pe < num_entities());
  ACIC_ASSERT_MSG(!pes_[pe].idle_polling_,
                  "cannot register an idle handler from inside an idle "
                  "poll on the same PE");
  const IdleHandlerId id = next_idle_handler_id_++;
  pes_[pe].idle_handlers_.push_back(Pe::IdleEntry{id, std::move(handler)});
  // If the PE is already asleep, poke it so the new handler gets a chance
  // to run; an exec event on an empty queue degrades to an idle poll.
  const SimTime now = tls_shard_ != nullptr ? tls_shard_->now : current_time_;
  ensure_exec_scheduled(pes_[pe], std::max(now, pes_[pe].avail_time_));
  return id;
}

void Machine::remove_idle_handler(PeId pe, IdleHandlerId id) {
  ACIC_ASSERT(pe < num_entities());
  ACIC_ASSERT_MSG(!pes_[pe].idle_polling_,
                  "cannot deregister an idle handler from inside an idle "
                  "poll on the same PE");
  auto& handlers = pes_[pe].idle_handlers_;
  for (std::size_t i = 0; i < handlers.size(); ++i) {
    if (handlers[i].id == id) {
      handlers.erase(handlers.begin() + static_cast<std::ptrdiff_t>(i));
      if (pes_[pe].idle_cursor_ > i) --pes_[pe].idle_cursor_;
      return;
    }
  }
  ACIC_ASSERT_MSG(false, "idle handler id not registered on this PE");
}

std::size_t Machine::num_idle_handlers(PeId pe) const {
  ACIC_ASSERT(pe < num_entities());
  return pes_[pe].idle_handlers_.size();
}

void Machine::set_speed_factor(PeId pe, double factor) {
  ACIC_ASSERT(pe < num_entities());
  ACIC_ASSERT_MSG(factor > 0.0, "speed factor must be positive");
  pes_[pe].speed_factor_ = factor;
}

std::uint32_t Machine::acquire_slot(Task task) {
  Shard* const sh = tls_shard_;
  std::vector<Task>& slots = sh != nullptr ? sh->slots : task_slots_;
  std::vector<std::uint32_t>& free_list =
      sh != nullptr ? sh->free_slots : free_slots_;
  if (!free_list.empty()) {
    const std::uint32_t slot = free_list.back();
    free_list.pop_back();
    slots[slot] = std::move(task);
    return slot;
  }
  const std::uint32_t slot = static_cast<std::uint32_t>(slots.size());
  ACIC_ASSERT_MSG(slot < kNoSlot, "task slot store exceeded 2^30 entries");
  slots.push_back(std::move(task));
  return slot;
}

Task Machine::release_slot(std::uint32_t slot) {
  Shard* const sh = tls_shard_;
  std::vector<Task>& slots = sh != nullptr ? sh->slots : task_slots_;
  Task task = std::move(slots[slot]);
  slots[slot] = nullptr;
  (sh != nullptr ? sh->free_slots : free_slots_).push_back(slot);
  return task;
}

void Machine::note_ready_depth(SimTime time) {
  // Same-timestamp changes coalesce: only the last value at a given
  // instant is observable, so one series append per distinct time.
  if (ready_sample_pending_ && ready_sample_time_ != time) {
    registry_->append(obs_->ready_tasks, ready_sample_time_,
                      ready_sample_value_);
  }
  ready_sample_pending_ = true;
  ready_sample_time_ = time;
  ready_sample_value_ = static_cast<double>(ready_tasks_);
}

void Machine::flush_ready_sample() {
  if (ready_sample_pending_) {
    registry_->append(obs_->ready_tasks, ready_sample_time_,
                      ready_sample_value_);
    ready_sample_pending_ = false;
  }
}

void Machine::push_arrival(SimTime time, PeId pe, Task task,
                           bool charge_recv) {
  Shard* const sh = tls_shard_;
  if (sh != nullptr) {
    const std::uint32_t dest = entity_node_[pe];
    const std::uint64_t seq = next_seq(sh->node);
    if (dest == sh->node) {
      const std::uint32_t slot = acquire_slot(std::move(task));
      sh->heap.push(Event{time, seq, pe,
                          charge_recv ? (kRecvBit | slot) : slot});
    } else {
      // Conservative lookahead: a cross-node arrival must land at or
      // after the floor other shards' windows were computed against.
      // Sends always satisfy this (inter-node transfer time >= the
      // lookahead, and the departure is at or after this shard's
      // window-start minimum); a cross-node schedule_at below it would
      // be a causality violation.
      ACIC_ASSERT_MSG(time >= sh->cross_floor,
                      "cross-node event scheduled inside the conservative "
                      "window (use a send, or run with --threads 1)");
      sh->outbox[sh->out][dest].push_back(
          Mail{time, seq, pe, charge_recv, std::move(task)});
      sh->sent_mail = true;
      if (time < sh->mail_min[dest]) sh->mail_min[dest] = time;
      // Feedback bound: a reaction to this mail cannot arrive here
      // before its delivery plus one more inter-node hop.  Always at or
      // ahead of the execution point (arrival >= event time +
      // lookahead), so the shrink never invalidates executed events.
      const SimTime feedback = time + sh->lookahead;
      if (feedback < sh->window_limit) sh->window_limit = feedback;
    }
    return;
  }
  const std::uint32_t node = running_ ? current_node_ : entity_node_[pe];
  const std::uint32_t slot = acquire_slot(std::move(task));
  queue_.push(Event{time, next_seq(node), pe,
                    charge_recv ? (kRecvBit | slot) : slot});
}

void Machine::push_exec(SimTime time, PeId pe) {
  Shard* const sh = tls_shard_;
  if (sh != nullptr) {
    ACIC_HOT_ASSERT(entity_node_[pe] == sh->node);
    sh->heap.push(Event{time, next_seq(sh->node), pe, kExecBit | kNoSlot});
    return;
  }
  const std::uint32_t node = running_ ? current_node_ : entity_node_[pe];
  queue_.push(Event{time, next_seq(node), pe, kExecBit | kNoSlot});
}

void Machine::ensure_exec_scheduled(Pe& pe, SimTime earliest) {
  if (pe.exec_scheduled_) return;
  pe.exec_scheduled_ = true;
  push_exec(std::max(earliest, pe.avail_time_), pe.id_);
}

void Machine::handle_arrival(const Event& event) {
  Pe& pe = pes_[event.pe];
  // The queued-task word reuses the event's packing (recv bit + slot).
  pe.fifo_.push_back(event.packed);
  Shard* const sh = tls_shard_;
  if (sh != nullptr) {
    ++sh->ready_delta;
  } else {
    ++ready_tasks_;
    if (registry_ != nullptr) [[unlikely]] {
      note_ready_depth(event.time);
    }
  }
  ensure_exec_scheduled(pe, event.time);
}

void Machine::handle_exec(const Event& event) {
  Pe& pe = pes_[event.pe];
  ACIC_ASSERT(pe.exec_scheduled_);
  pe.current_time_ = std::max(event.time, pe.avail_time_);
  Shard* const sh = tls_shard_;

  if (!pe.fifo_.empty()) {
    const std::uint32_t queued = pe.fifo_.pop_front();
    // Move the task out of its slot before running it: the task may
    // enqueue new arrivals, which can grow (reallocate) the slot store.
    Task task = release_slot(queued & kSlotMask);
    ++pe.tasks_run_;
    if (sh != nullptr) {
      --sh->ready_delta;
      ++sh->stats.tasks_executed;
    } else {
      --ready_tasks_;
      if (active_stats_ != nullptr) ++active_stats_->tasks_executed;
      if (registry_ != nullptr) [[unlikely]] {
        registry_->add(obs_->tasks_executed, pe.id_, 1, pe.current_time_);
        note_ready_depth(pe.current_time_);
      }
    }
    const SimTime span_start = pe.current_time_;
    // The receiver's per-message overhead is part of the task's span,
    // charged exactly where the old wrapper closure charged it.
    if ((queued & kRecvBit) != 0) pe.charge(network_.recv_overhead_us);
    task(pe);
    if (span_hook_) {
      span_hook_(pe.id_, span_start, pe.current_time_, false);
    }
    pe.avail_time_ = pe.current_time_;
    // Stay scheduled: either more tasks are queued or the idle handler
    // deserves a poll once this task's simulated time has elapsed.
    push_exec(pe.avail_time_, pe.id_);
    return;
  }

  // Queue empty: poll the idle handlers (Charm++'s when-idle callback).
  // With several registered (multi-tenant engines sharing the PE), one
  // poll tries each in turn — starting after the handler that last did
  // work, so no engine can starve the others — and stops at the first
  // that reports work.
  if (!pe.idle_handlers_.empty()) {
    const SimTime span_start = pe.current_time_;
    pe.charge(kIdlePollCostUs);
    if (sh != nullptr) {
      ++sh->stats.idle_polls;
    } else {
      if (active_stats_ != nullptr) ++active_stats_->idle_polls;
      if (registry_ != nullptr) [[unlikely]] {
        registry_->add(obs_->idle_polls, pe.id_, 1, pe.current_time_);
      }
    }
    bool did_work = false;
    pe.idle_polling_ = true;
    const std::size_t n = pe.idle_handlers_.size();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t idx = (pe.idle_cursor_ + i) % n;
      if (pe.idle_handlers_[idx].handler(pe)) {
        did_work = true;
        pe.idle_cursor_ = (idx + 1) % n;
        break;
      }
    }
    pe.idle_polling_ = false;
    if (span_hook_) {
      // Idle polls that found work count as busy spans.
      span_hook_(pe.id_, span_start, pe.current_time_, !did_work);
    }
    pe.avail_time_ = pe.current_time_;
    if (did_work || !pe.fifo_.empty()) {
      push_exec(pe.avail_time_, pe.id_);
      return;
    }
  }
  pe.exec_scheduled_ = false;  // sleep until the next arrival
}

RunStats Machine::run(SimTime time_limit) {
  if (threads_ > 1 && topology_.nodes > 1 && registry_ == nullptr &&
      !span_hook_ && network_.latency_inter_node_us > 0.0) {
    return run_parallel(time_limit);
  }
  RunStats stats;
  last_threads_used_ = 1;
  active_stats_ = &stats;
  running_ = true;
  while (!queue_.empty()) {
    if (queue_.top().time > time_limit) {
      stats.hit_time_limit = true;
      break;
    }
    const Event event = queue_.top();  // POD copy; payload stays parked
    queue_.pop();
    ++events_processed_;
    ++stats.events_processed;
    current_time_ = std::max(current_time_, event.time);
    // Pushes triggered by this event key on its node — the same node a
    // parallel shard would key them on.
    current_node_ = entity_node_[event.pe];
    if (event.is_exec()) {
      handle_exec(event);
    } else {
      handle_arrival(event);
    }
  }
  running_ = false;
  if (registry_ != nullptr) [[unlikely]] {
    flush_ready_sample();
  }
  stats.end_time_us = current_time_;
  active_stats_ = nullptr;
  return stats;
}

RunStats Machine::run_parallel(SimTime time_limit) {
  const std::uint32_t nodes = topology_.nodes;
  const unsigned nthreads = std::min<unsigned>(threads_, nodes);
  // Conservative lookahead: no message crosses nodes in less than the
  // inter-node wire latency (transfer_time = latency + bytes/bandwidth),
  // so no shard can be affected by another sooner than that.
  const SimTime lookahead = network_.latency_inter_node_us;
  last_threads_used_ = nthreads;

  if (par_ == nullptr) par_ = std::make_unique<ParallelState>();
  std::vector<Shard>& shards = par_->shards;
  if (shards.size() != nodes) {
    shards.clear();
    shards.resize(nodes);
    for (std::uint32_t n = 0; n < nodes; ++n) {
      shards[n].node = n;
      shards[n].outbox[0].resize(nodes);
      shards[n].outbox[1].resize(nodes);
      shards[n].mail_min.assign(nodes, kNoTimeLimit);
    }
  }
  for (std::uint32_t n = 0; n < nodes; ++n) {
    Shard& sh = shards[n];
    sh.now = current_time_;
    sh.lookahead = lookahead;
    sh.stats = RunStats{};
    sh.ready_delta = 0;
  }
  // Parked tasks (pending arrivals, and tasks left queued on a PE by a
  // time limit) move to their node's shard store for the run and back
  // after it; each helper returns the task's new queued-task word.
  auto park_in_shard = [this](Shard& sh, std::uint32_t word) {
    Task task = release_slot(word & kSlotMask);
    tls_shard_ = &sh;
    const std::uint32_t slot = acquire_slot(std::move(task));
    tls_shard_ = nullptr;
    return (word & kRecvBit) | slot;
  };
  auto park_global = [this](Shard& sh, std::uint32_t word) {
    return (word & kRecvBit) |
           acquire_slot(std::move(sh.slots[word & kSlotMask]));
  };
  for (Pe& pe : pes_) {
    Shard& sh = shards[entity_node_[pe.id_]];
    pe.fifo_.rewrite(
        [&](std::uint32_t word) { return park_in_shard(sh, word); });
  }
  // Redistribute the global heap into the per-node shards.  Insertion
  // order is irrelevant: the comparator is a total order, so every heap
  // pops the same sequence regardless of how it was filled.
  while (!queue_.empty()) {
    const Event e = queue_.top();
    queue_.pop();
    Shard& sh = shards[entity_node_[e.pe]];
    sh.heap.push(e.is_exec()
                     ? e
                     : Event{e.time, e.seq, e.pe, park_in_shard(sh, e.packed)});
  }

  // --- Shared window-scheduling state -------------------------------
  // Per-shard heap minima at the window boundary, published by the
  // owner, reduced once by the barrier's completion step.
  struct alignas(64) PaddedTime {
    SimTime v = kNoTimeLimit;
  };
  std::vector<PaddedTime> shard_min(nodes);
  // The window plan every thread reads after the barrier.
  struct Plan {
    SimTime min1 = kNoTimeLimit;  // global earliest event time
    SimTime min2 = kNoTimeLimit;  // earliest on any shard != node1
    std::uint32_t node1 = 0;      // shard holding min1 (lowest id on ties)
    bool run = false;             // execute a window this round?
    bool merge = false;           // did the previous window buffer mail?
    bool hit_limit = false;
    unsigned out = 0;             // outbox parity the next window fills
  } plan;
  std::uint64_t windows = 0;
  std::uint64_t window_merges = 0;

  // Runs on the last thread into the barrier.  Folding the earliest
  // arrival each shard mailed last window into the published minima
  // yields exactly the heap minima the owners see once they merge that
  // mail.  One O(nodes) scan then decides the window for everyone
  // (min1/min2 with the arg-min shard, ties to the lowest node id —
  // deterministic, though results never depend on it).
  SpinBarrier window_barrier(nthreads, [&] {
    plan.merge = false;
    for (Shard& src : shards) {
      if (!src.sent_mail) continue;
      src.sent_mail = false;
      plan.merge = true;
      for (std::uint32_t d = 0; d < nodes; ++d) {
        shard_min[d].v = std::min(shard_min[d].v, src.mail_min[d]);
        src.mail_min[d] = kNoTimeLimit;
      }
    }
    if (plan.merge) ++window_merges;
    plan.out ^= 1;
    SimTime min1 = kNoTimeLimit;
    SimTime min2 = kNoTimeLimit;
    std::uint32_t node1 = 0;
    for (std::uint32_t n = 0; n < nodes; ++n) {
      const SimTime v = shard_min[n].v;
      if (v < min1) {
        min2 = min1;
        min1 = v;
        node1 = n;
      } else if (v < min2) {
        min2 = v;
      }
    }
    plan.min1 = min1;
    plan.min2 = min2;
    plan.node1 = node1;
    plan.run = min1 != kNoTimeLimit && min1 <= time_limit;
    if (min1 != kNoTimeLimit && min1 > time_limit) plan.hit_limit = true;
    if (plan.run) ++windows;
  });

  // Thread tid owns shards [lo, hi) for the whole run, so a shard's
  // heap, slot store and PE state stay in one core's caches.
  auto worker = [&](unsigned tid) {
    const std::uint32_t lo = tid * nodes / nthreads;
    const std::uint32_t hi = (tid + 1) * nodes / nthreads;
    for (;;) {
      for (std::uint32_t s = lo; s < hi; ++s) {
        const auto& heap = shards[s].heap;
        shard_min[s].v = heap.empty() ? kNoTimeLimit : heap.top().time;
      }
      window_barrier.arrive_and_wait();
      // Every thread reads the same plan, so all merge and break
      // together.  Merging before the break lets mail buffered when the
      // run stops at its time limit reach the heaps the final fold
      // drains.  The composite seq keys make the merge order irrelevant.
      const unsigned out = plan.out;
      if (plan.merge) {
        for (std::uint32_t d = lo; d < hi; ++d) {
          Shard& dst = shards[d];
          tls_shard_ = &dst;
          for (Shard& src : shards) {
            std::vector<Mail>& box = src.outbox[out ^ 1][d];
            for (Mail& mail : box) {
              const std::uint32_t slot = acquire_slot(std::move(mail.task));
              dst.heap.push(Event{mail.time, mail.seq, mail.pe,
                                  mail.charge_recv ? (kRecvBit | slot)
                                                   : slot});
            }
            box.clear();  // keeps capacity: boxes never regrow in steady state
          }
        }
        tls_shard_ = nullptr;
      }
      if (!plan.run) break;

      for (std::uint32_t s = lo; s < hi; ++s) {
        Shard& sh = shards[s];
        if (sh.heap.empty()) continue;
        // Shard s stops at (min over OTHER shards) + lookahead: for
        // everyone but the arg-min shard that is min1 + lookahead; the
        // arg-min shard runs on to min2 + lookahead.  Safe because no
        // other shard can inject an event below its own minimum +
        // lookahead, and cascades through this shard's own sends are
        // cut off by the feedback shrink in push_arrival.
        sh.window_limit = s == plan.node1 ? plan.min2 + lookahead
                                          : plan.min1 + lookahead;
        sh.cross_floor = shard_min[s].v + lookahead;
        sh.out = out;
        tls_shard_ = &sh;
        while (!sh.heap.empty()) {
          const Event& top = sh.heap.top();
          if (top.time >= sh.window_limit || top.time > time_limit) break;
          const Event e = top;
          sh.heap.pop();
          ++sh.stats.events_processed;
          sh.now = std::max(sh.now, e.time);
          if (e.is_exec()) {
            handle_exec(e);
          } else {
            handle_arrival(e);
          }
        }
        tls_shard_ = nullptr;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(nthreads - 1);
  for (unsigned tid = 1; tid < nthreads; ++tid) {
    pool.emplace_back(worker, tid);
  }
  worker(0);
  for (std::thread& t : pool) t.join();

  // Fold shard deltas back into the machine and merge unprocessed
  // events (a hit time limit) back into the global queue.
  RunStats stats;
  stats.hit_time_limit = plan.hit_limit;
  stats.threads_used = nthreads;
  stats.windows = windows;
  stats.window_merges = window_merges;
  windows_ += windows;
  window_merges_ += window_merges;
  for (Pe& pe : pes_) {
    Shard& sh = shards[entity_node_[pe.id_]];
    pe.fifo_.rewrite(
        [&](std::uint32_t word) { return park_global(sh, word); });
  }
  for (Shard& sh : shards) {
    stats.tasks_executed += sh.stats.tasks_executed;
    stats.idle_polls += sh.stats.idle_polls;
    stats.messages_sent += sh.stats.messages_sent;
    stats.bytes_sent += sh.stats.bytes_sent;
    stats.events_processed += sh.stats.events_processed;
    messages_sent_ += sh.stats.messages_sent;
    bytes_sent_ += sh.stats.bytes_sent;
    events_processed_ += sh.stats.events_processed;
    ready_tasks_ = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(ready_tasks_) + sh.ready_delta);
    current_time_ = std::max(current_time_, sh.now);
    while (!sh.heap.empty()) {
      const Event e = sh.heap.top();
      sh.heap.pop();
      queue_.push(e.is_exec()
                      ? e
                      : Event{e.time, e.seq, e.pe, park_global(sh, e.packed)});
    }
    // Every parked task has been moved out (run queues and heap);
    // dropping the bookkeeping keeps the capacity for the next run.
    sh.slots.clear();
    sh.free_slots.clear();
  }
  stats.end_time_us = current_time_;
  return stats;
}

}  // namespace acic::runtime
