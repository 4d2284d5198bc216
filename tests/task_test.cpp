// Unit tests for runtime::Task (src/runtime/task.hpp): move-only
// semantics, inline vs slab-spilled capture storage, and — the property
// the event loop depends on — exactly one destruction per capture, even
// when a queued task is never executed.

#include <array>
#include <cstddef>
#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "src/runtime/machine.hpp"
#include "src/runtime/task.hpp"
#include "src/runtime/topology.hpp"

namespace {

using acic::runtime::Machine;
using acic::runtime::Pe;
using acic::runtime::Task;
using acic::runtime::Topology;
using acic::runtime::detail::task_slab_live_blocks;
using acic::runtime::detail::task_slab_pooled_blocks;

/// Counts constructions and destructions of every copy/move of itself.
struct Probe {
  int* live;
  explicit Probe(int* counter) : live(counter) { ++*live; }
  Probe(const Probe& other) : live(other.live) { ++*live; }
  Probe(Probe&& other) noexcept : live(other.live) { ++*live; }
  ~Probe() { --*live; }
};

TEST(Task, EmptyTaskIsFalse) {
  Task task;
  EXPECT_FALSE(static_cast<bool>(task));
  Task null_task = nullptr;
  EXPECT_FALSE(static_cast<bool>(null_task));
}

TEST(Task, SmallCaptureStoredInline) {
  int hits = 0;
  Task task = [&hits](Pe&) { ++hits; };
  EXPECT_TRUE(static_cast<bool>(task));
  EXPECT_TRUE(task.stored_inline());

  // Up to the inline budget stays inline.
  std::array<char, Task::kInlineBytes> payload{};
  Task full = [payload](Pe&) { (void)payload; };
  EXPECT_TRUE(full.stored_inline());
}

TEST(Task, OversizedCaptureSpillsToSlab) {
  const std::size_t live_before = task_slab_live_blocks();
  std::array<char, Task::kInlineBytes + 1> payload{};
  {
    Task task = [payload](Pe&) { (void)payload; };
    EXPECT_TRUE(static_cast<bool>(task));
    EXPECT_FALSE(task.stored_inline());
    EXPECT_EQ(task_slab_live_blocks(), live_before + 1);
  }
  // Destruction returns the block to the pool, not the system allocator.
  EXPECT_EQ(task_slab_live_blocks(), live_before);
  EXPECT_GE(task_slab_pooled_blocks(), 1u);
}

TEST(Task, SlabRecyclesFreedBlocks) {
  std::array<char, 200> payload{};  // 256-byte size class
  { Task warm = [payload](Pe&) {}; }
  const std::size_t pooled = task_slab_pooled_blocks();
  {
    Task task = [payload](Pe&) {};
    // The spill reused a pooled block rather than allocating a fresh one.
    EXPECT_EQ(task_slab_pooled_blocks(), pooled - 1);
  }
  EXPECT_EQ(task_slab_pooled_blocks(), pooled);
}

TEST(Task, MoveTransfersOwnershipInline) {
  int live = 0;
  int hits = 0;
  {
    Task a = [probe = Probe(&live), &hits](Pe&) { ++hits; };
    EXPECT_GE(live, 1);
    Task b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(static_cast<bool>(b));

    Task c;
    c = std::move(b);
    EXPECT_FALSE(static_cast<bool>(b));  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(static_cast<bool>(c));

    Machine machine(Topology::tiny(1));
    machine.schedule_at(0.0, 0, std::move(c));
    machine.run();
    EXPECT_EQ(hits, 1);
  }
  EXPECT_EQ(live, 0);
}

TEST(Task, MoveTransfersOwnershipSpilled) {
  int live = 0;
  std::array<char, Task::kInlineBytes * 2> payload{};
  {
    Task a = [probe = Probe(&live), payload](Pe&) { (void)payload; };
    EXPECT_FALSE(a.stored_inline());
    const std::size_t live_blocks = task_slab_live_blocks();
    Task b = std::move(a);
    // Moving a spilled task moves the block pointer, not the capture.
    EXPECT_EQ(task_slab_live_blocks(), live_blocks);
    EXPECT_TRUE(static_cast<bool>(b));
  }
  EXPECT_EQ(live, 0);
}

TEST(Task, MoveAssignDestroysPreviousCapture) {
  int live_a = 0;
  int live_b = 0;
  Task task = [probe = Probe(&live_a)](Pe&) {};
  EXPECT_EQ(live_a, 1);
  task = Task([probe = Probe(&live_b)](Pe&) {});
  EXPECT_EQ(live_a, 0);
  EXPECT_EQ(live_b, 1);
  task = nullptr;
  EXPECT_EQ(live_b, 0);
}

TEST(Task, CaptureCanHoldMoveOnlyState) {
  auto value = std::make_unique<int>(41);
  int seen = 0;
  Task task = [value = std::move(value), &seen](Pe&) { seen = *value + 1; };
  Machine machine(Topology::tiny(1));
  machine.schedule_at(0.0, 0, std::move(task));
  machine.run();
  EXPECT_EQ(seen, 42);
}

TEST(Task, QueuedButNeverRunTasksAreDestroyed) {
  // A run() that hits its time limit leaves arrivals parked in the
  // machine's slot store; destroying the machine must destroy them (both
  // inline and spilled captures), or hit_time_limit leaks closures.
  int live = 0;
  std::array<char, Task::kInlineBytes * 2> payload{};
  const std::size_t live_blocks_before = task_slab_live_blocks();
  {
    Machine machine(Topology::tiny(1));
    machine.schedule_at(5.0, 0, [probe = Probe(&live)](Pe&) {});
    machine.schedule_at(6.0, 0,
                        [probe = Probe(&live), payload](Pe&) {
                          (void)payload;
                        });
    const auto stats = machine.run(/*time_limit=*/1.0);
    EXPECT_TRUE(stats.hit_time_limit);
    EXPECT_EQ(stats.tasks_executed, 0u);
    EXPECT_EQ(live, 2);
  }
  EXPECT_EQ(live, 0);
  EXPECT_EQ(task_slab_live_blocks(), live_blocks_before);
}

TEST(Task, FifoQueuedButNeverRunTasksAreDestroyed) {
  // Same leak hazard one stage later: the arrival was processed (task
  // parked in the PE fifo) but the exec step never ran.
  int live = 0;
  {
    Machine machine(Topology::tiny(1));
    machine.schedule_at(0.0, 0, [](Pe& pe) { pe.charge(10.0); });
    machine.schedule_at(1.0, 0, [probe = Probe(&live)](Pe&) {});
    const auto stats = machine.run(/*time_limit=*/2.0);
    EXPECT_TRUE(stats.hit_time_limit);
    EXPECT_EQ(live, 1);
  }
  EXPECT_EQ(live, 0);
}

}  // namespace
