#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "index/btree.h"

namespace pgssi {
namespace {

std::string K(uint64_t i) {
  char b[20];
  std::snprintf(b, sizeof(b), "k%08llu", static_cast<unsigned long long>(i));
  return b;
}

TEST(BTreeTest, InsertLookupBasic) {
  util::EpochManager em;
  BTree t(4, &em);
  PageId pg;
  uint32_t slot;
  EXPECT_TRUE(t.Insert("b", 1, &pg, &slot));
  EXPECT_TRUE(t.Insert("a", 2, &pg, &slot));
  EXPECT_TRUE(t.Insert("c", 3, &pg, &slot));
  EXPECT_EQ(t.size(), 3u);

  TupleId tid;
  EXPECT_TRUE(t.Lookup("a", &tid, &pg, &slot));
  EXPECT_EQ(tid, 2u);
  EXPECT_TRUE(t.Lookup("b", &tid, &pg, &slot));
  EXPECT_EQ(tid, 1u);
  EXPECT_FALSE(t.Lookup("zz", &tid, &pg, &slot));
}

TEST(BTreeTest, DuplicateInsertRejectedAndReportsLocation) {
  util::EpochManager em;
  BTree t(4, &em);
  PageId pg1, pg2;
  uint32_t s1, s2;
  EXPECT_TRUE(t.Insert("x", 10, &pg1, &s1));
  EXPECT_FALSE(t.Insert("x", 99, &pg2, &s2));
  EXPECT_EQ(pg1, pg2);
  EXPECT_EQ(s1, s2);
  TupleId tid;
  EXPECT_TRUE(t.Lookup("x", &tid, &pg1, &s1));
  EXPECT_EQ(tid, 10u);  // original mapping kept
}

TEST(BTreeTest, ManyKeysSortedScanAcrossSplits) {
  util::EpochManager em;
  BTree t(4, &em);  // tiny fanout: force deep splits
  std::map<std::string, TupleId> model;
  PageId pg;
  // Insert in a scrambled deterministic order.
  for (uint64_t i = 0; i < 500; i++) {
    uint64_t k = (i * 37) % 500;
    if (model.emplace(K(k), k).second) {
      EXPECT_TRUE(t.Insert(K(k), k, &pg));
    }
  }
  EXPECT_EQ(t.size(), model.size());
  EXPECT_GT(t.LeafCount(), 10u);

  // Every key findable with the right tuple id.
  for (const auto& [k, tid] : model) {
    TupleId got;
    EXPECT_TRUE(t.Lookup(k, &got, &pg));
    EXPECT_EQ(got, tid);
  }

  // Full scan returns all keys in order.
  std::vector<std::string> seen;
  t.Scan(K(0), K(9999999), [&](const std::string& k, TupleId, PageId, uint32_t) {
    seen.push_back(k);
    return true;
  });
  ASSERT_EQ(seen.size(), model.size());
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));

  // Bounded inclusive scan.
  seen.clear();
  t.Scan(K(10), K(20), [&](const std::string& k, TupleId, PageId, uint32_t) {
    seen.push_back(k);
    return true;
  });
  EXPECT_EQ(seen.size(), 11u);
  EXPECT_EQ(seen.front(), K(10));
  EXPECT_EQ(seen.back(), K(20));
}

TEST(BTreeTest, SplitListenerReportsMovedSlots) {
  util::EpochManager em;
  BTree t(4, &em);
  int splits = 0;
  std::vector<uint32_t> last_moved;
  PageId last_old = 0, last_new = 0;
  t.SetSplitListener(
      [&](PageId o, PageId n, const std::vector<uint32_t>& moved) {
        splits++;
        last_old = o;
        last_new = n;
        last_moved = moved;
      });
  PageId pg;
  for (uint64_t i = 0; i < 10; i++) t.Insert(K(i), i, &pg);
  EXPECT_GT(splits, 0);
  EXPECT_NE(last_old, last_new);
  EXPECT_FALSE(last_moved.empty());
  // Every reported moved slot must now be found on the new page.
  size_t found_moved = 0;
  t.Scan(K(0), K(9999), [&](const std::string&, TupleId, PageId p, uint32_t s) {
    if (p == last_new) {
      for (uint32_t m : last_moved) {
        if (m == s) found_moved++;
      }
    }
    return true;
  });
  EXPECT_EQ(found_moved, last_moved.size());
}

TEST(BTreeTest, PageForAndNextKey) {
  util::EpochManager em;
  BTree t(4, &em);
  PageId pg;
  for (uint64_t i = 0; i < 50; i += 2) t.Insert(K(i), i, &pg);

  // PageFor of an existing key matches its Lookup page.
  TupleId tid;
  PageId lpg;
  ASSERT_TRUE(t.Lookup(K(10), &tid, &lpg));
  EXPECT_EQ(t.PageFor(K(10)), lpg);

  // NextKey of a gap key is the next even key.
  std::string nk;
  uint32_t slot;
  ASSERT_TRUE(t.NextKey(K(11), &nk, &tid, &pg, &slot));
  EXPECT_EQ(nk, K(12));
  // NextKey past the last key: none.
  EXPECT_FALSE(t.NextKey(K(48), &nk, &tid, &pg, &slot));
  ASSERT_TRUE(t.NextKey(K(47), &nk, &tid, &pg, &slot));
  EXPECT_EQ(nk, K(48));
}

// Satellite regression (fanout 4): the leftmost leaf is the chain
// anchor and is deliberately never recycled — unlinking any other leaf
// publishes through its PREDECESSOR's version bump, which the head has
// none of, and the root's leftmost descent path must stay landable.
// This pins both halves of that decision: after erasing EVERY key the
// tree holds exactly the one empty anchor leaf (bounded leftover, not
// a leak), and the anchor is still fully usable for reinsertion. The
// recycled leaves and erased entries must actually reach the limbo and
// get freed.
TEST(BTreeTest, LeftmostLeafSurvivesFullEraseAndStaysUsable) {
  util::EpochManager em;
  BTree t(4, &em);
  PageId pg;
  uint32_t slot;
  constexpr uint64_t kN = 64;
  for (uint64_t i = 0; i < kN; i++) {
    ASSERT_TRUE(t.Insert(K(i), i, &pg, &slot));
  }
  ASSERT_GT(t.LeafCount(), 1u);
  for (uint64_t i = 0; i < kN; i++) {
    ASSERT_TRUE(t.Erase(K(i), i));
  }
  EXPECT_EQ(t.size(), 0u);
  // Everything but the anchor was recycled.
  EXPECT_EQ(t.LeafCount(), 1u);
  // Retirees flow through the limbo, and a quiesce really frees them.
  em.Quiesce();
  EXPECT_EQ(em.RetiredObjectCount(), 0u);
  EXPECT_GT(em.FreedObjectCount(), 0u);
  // The surviving anchor still anchors: refill and read everything
  // back in order.
  for (uint64_t i = 0; i < kN; i++) {
    ASSERT_TRUE(t.Insert(K(i), i + 100, &pg, &slot));
  }
  uint64_t expect = 0;
  t.Scan(K(0), K(kN), [&](const std::string& k, TupleId tid, PageId,
                          uint32_t) {
    EXPECT_EQ(k, K(expect));
    EXPECT_EQ(tid, expect + 100);
    expect++;
    return true;
  });
  EXPECT_EQ(expect, kN);
}

}  // namespace
}  // namespace pgssi
