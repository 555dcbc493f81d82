/**
 * @file
 * Unit tests for the intrusive list behind the PipelineIndex's
 * uncommitted frontier. The index itself is pinned to the naive ROB
 * scan by the shadow differential suite (tests/shadow_test.cc).
 */

#include <gtest/gtest.h>

#include "common/intrusive_list.h"

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

} // namespace
} // namespace noreba
