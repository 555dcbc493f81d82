/**
 * @file
 * Unit tests for the intrusive list behind the PipelineIndex's
 * uncommitted frontier, and for the index's C2 memory barrier
 * (oldestUncheckedMem) driven with hand-built InFlights. The whole
 * index is also pinned to the naive ROB scan by the shadow
 * differential suite (tests/shadow_test.cc).
 */

#include <gtest/gtest.h>

#include "common/intrusive_list.h"
#include "uarch/pipeline_index.h"

namespace noreba {
namespace {

/** @name IntrusiveList unit tests @{ */

struct Node
{
    Node *prev = nullptr;
    Node *next = nullptr;
    bool linked = false;
    int v = 0;
};

using List = IntrusiveList<Node, &Node::prev, &Node::next, &Node::linked>;

TEST(IntrusiveList, PushBackKeepsOrder)
{
    Node n[4];
    List l;
    EXPECT_TRUE(l.empty());
    for (int i = 0; i < 4; ++i) {
        n[i].v = i;
        l.pushBack(&n[i]);
    }
    EXPECT_EQ(l.size(), 4u);
    int want = 0;
    for (Node *p = l.head(); p; p = List::next(p))
        EXPECT_EQ(p->v, want++);
    EXPECT_EQ(want, 4);
    EXPECT_EQ(l.tail()->v, 3);
}

TEST(IntrusiveList, EraseMiddleHeadTail)
{
    Node n[5];
    List l;
    for (auto &node : n)
        l.pushBack(&node);

    l.erase(&n[2]); // middle
    EXPECT_FALSE(List::linked(&n[2]));
    EXPECT_EQ(List::next(&n[1]), &n[3]);
    EXPECT_EQ(List::prev(&n[3]), &n[1]);

    l.erase(&n[0]); // head
    EXPECT_EQ(l.head(), &n[1]);
    EXPECT_EQ(List::prev(&n[1]), nullptr);

    l.erase(&n[4]); // tail
    EXPECT_EQ(l.tail(), &n[3]);
    EXPECT_EQ(l.size(), 2u);

    // Erased nodes can be re-linked (the frontier does this on
    // re-dispatch after a squash).
    l.pushBack(&n[2]);
    EXPECT_EQ(l.tail(), &n[2]);
    EXPECT_EQ(l.size(), 3u);
}

TEST(IntrusiveList, ClearUnlinksAll)
{
    Node n[3];
    List l;
    for (auto &node : n)
        l.pushBack(&node);
    l.clear();
    EXPECT_TRUE(l.empty());
    EXPECT_EQ(l.head(), nullptr);
    EXPECT_EQ(l.tail(), nullptr);
    for (auto &node : n)
        EXPECT_FALSE(List::linked(&node));
}
/** @} */

/** @name PipelineIndex memory barrier @{ */

constexpr TraceIdx NONE_UNCHECKED = INT32_MAX;

/** A fresh, undispatched instruction at trace index @p idx. */
void
blank(InFlight &p, TraceIdx idx, Opcode op)
{
    p = InFlight{};
    p.idx = idx;
    p.rec.op = op;
}

/** Start @p p's page-table check; it completes at @p doneAt. */
void
startCheck(InFlight &p, Cycle doneAt)
{
    p.tlbChecked = true;
    p.tlbDoneAt = doneAt;
}

TEST(PipelineIndexMemBarrier, OlderUncheckedHidesYoungerChecked)
{
    InFlight ld, add, st;
    blank(ld, 0, Opcode::LW);
    blank(add, 1, Opcode::ADD);
    blank(st, 2, Opcode::SD);
    PipelineIndex index;
    for (InFlight *p : {&ld, &add, &st})
        index.onDispatch(p);
    EXPECT_EQ(index.oldestUncheckedMem(0), 0);

    startCheck(st, 5);
    startCheck(ld, 20);
    EXPECT_EQ(index.oldestUncheckedMem(10), 0); // store done, load not
    EXPECT_EQ(index.oldestUncheckedMem(19), 0);
    EXPECT_EQ(index.oldestUncheckedMem(20), NONE_UNCHECKED);
}

TEST(PipelineIndexMemBarrier, CheckIsDoneAtExactlyItsDoneCycle)
{
    InFlight ld;
    blank(ld, 0, Opcode::LD);
    PipelineIndex index;
    index.onDispatch(&ld);
    startCheck(ld, 7);
    EXPECT_EQ(index.oldestUncheckedMem(6), 0);
    EXPECT_EQ(index.oldestUncheckedMem(7), NONE_UNCHECKED);
    EXPECT_EQ(index.oldestUncheckedMem(8), NONE_UNCHECKED);
}

TEST(PipelineIndexMemBarrier, StoreCommittedBeforeItsCheckCompletes)
{
    // In-order commit can retire a store whose TLB miss is still
    // outstanding; the commit, not the check, removes it.
    InFlight st, ld;
    blank(st, 0, Opcode::SW);
    blank(ld, 1, Opcode::LW);
    PipelineIndex index;
    index.onDispatch(&st);
    index.onDispatch(&ld);
    startCheck(st, 50);
    EXPECT_EQ(index.oldestUncheckedMem(10), 0);

    st.committed = true;
    index.onCommit(&st);
    EXPECT_EQ(index.oldestUncheckedMem(10), 1);
    startCheck(ld, 12);
    EXPECT_EQ(index.oldestUncheckedMem(11), 1);
    EXPECT_EQ(index.oldestUncheckedMem(12), NONE_UNCHECKED);
    EXPECT_EQ(index.oldestUncheckedMem(60), NONE_UNCHECKED);
}

TEST(PipelineIndexMemBarrier, SquashDropsCheckedAndUncheckedEntries)
{
    InFlight op[6];
    PipelineIndex index;
    for (int i = 0; i < 6; ++i) {
        blank(op[i], i, i % 2 ? Opcode::SD : Opcode::LD);
        index.onDispatch(&op[i]);
    }
    startCheck(op[1], 3);
    startCheck(op[3], 3); // done, but held behind op[0]
    startCheck(op[5], 90); // not done
    EXPECT_EQ(index.oldestUncheckedMem(4), 0);

    index.onSquash(2); // removes 3 (checked), 4 (unchecked), 5 (pending)
    // The squashed slots are recycled for unrelated instructions; an
    // entry that survived the squash would now read a foreign slot.
    blank(op[3], 10, Opcode::ADD);
    blank(op[4], 11, Opcode::LW);
    blank(op[5], 12, Opcode::SW);
    EXPECT_EQ(index.oldestUncheckedMem(4), 0);

    startCheck(op[0], 4);
    EXPECT_EQ(index.oldestUncheckedMem(4), 2);
    startCheck(op[2], 6);
    EXPECT_EQ(index.oldestUncheckedMem(5), 2);
    EXPECT_EQ(index.oldestUncheckedMem(6), NONE_UNCHECKED);

    // Re-dispatch down the correct path after the squash.
    InFlight refetched;
    blank(refetched, 3, Opcode::LD);
    index.onDispatch(&refetched);
    EXPECT_EQ(index.oldestUncheckedMem(6), 3);
    startCheck(refetched, 9);
    EXPECT_EQ(index.oldestUncheckedMem(9), NONE_UNCHECKED);
}
/** @} */

} // namespace
} // namespace noreba
