#include "analytics/binding.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <thread>
#include <vector>

#include "analytics/value.h"
#include "rdf/dictionary.h"
#include "rows_of.h"

namespace rapida::analytics {
namespace {

class BindingTest : public ::testing::Test {
 protected:
  rdf::TermId T(const std::string& iri) { return dict_.InternIri(iri); }
  rdf::Dictionary dict_;
};

TEST_F(BindingTest, VarIndexAndAddRow) {
  BindingTable t({"a", "b"});
  EXPECT_EQ(t.VarIndex("a"), 0);
  EXPECT_EQ(t.VarIndex("b"), 1);
  EXPECT_EQ(t.VarIndex("c"), -1);
  t.AddRow({T("x"), T("y")});
  EXPECT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(t.NumCols(), 2u);
}

TEST_F(BindingTest, JoinOnSharedVar) {
  BindingTable l({"a", "b"});
  l.AddRow({T("a1"), T("b1")});
  l.AddRow({T("a2"), T("b2")});
  BindingTable r({"b", "c"});
  r.AddRow({T("b1"), T("c1")});
  r.AddRow({T("b1"), T("c2")});
  r.AddRow({T("b3"), T("c3")});

  BindingTable j = l.Join(r);
  EXPECT_EQ(j.vars(), (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(j.NumRows(), 2u);  // a1-b1-c1, a1-b1-c2
  for (const auto& row : j.rows()) {
    EXPECT_EQ(row[0], T("a1"));
    EXPECT_EQ(row[1], T("b1"));
  }
}

TEST_F(BindingTest, JoinWithNoSharedVarsIsCrossProduct) {
  BindingTable l({"a"});
  l.AddRow({T("a1")});
  l.AddRow({T("a2")});
  BindingTable r({"b"});
  r.AddRow({T("b1")});
  r.AddRow({T("b2")});
  r.AddRow({T("b3")});
  EXPECT_EQ(l.Join(r).NumRows(), 6u);
}

TEST_F(BindingTest, JoinOnMultipleSharedVars) {
  BindingTable l({"a", "b"});
  l.AddRow({T("a1"), T("b1")});
  l.AddRow({T("a1"), T("b2")});
  BindingTable r({"a", "b", "c"});
  r.AddRow({T("a1"), T("b1"), T("c1")});
  r.AddRow({T("a1"), T("b9"), T("c2")});
  BindingTable j = l.Join(r);
  ASSERT_EQ(j.NumRows(), 1u);
  EXPECT_EQ(j.rows()[0][2], T("c1"));
}

TEST_F(BindingTest, LeftJoinKeepsUnmatchedRows) {
  BindingTable l({"a"});
  l.AddRow({T("a1")});
  l.AddRow({T("a2")});
  BindingTable r({"a", "b"});
  r.AddRow({T("a1"), T("b1")});

  BindingTable j = l.LeftJoin(r);
  ASSERT_EQ(j.NumRows(), 2u);
  // a1 matched, a2 padded with unbound.
  bool saw_unbound = false;
  for (const auto& row : j.rows()) {
    if (row[0] == T("a2")) {
      EXPECT_EQ(row[1], rdf::kInvalidTermId);
      saw_unbound = true;
    }
  }
  EXPECT_TRUE(saw_unbound);
}

TEST_F(BindingTest, LeftJoinUnboundLeftCellIsCompatible) {
  BindingTable l({"a", "b"});
  l.AddRow({T("a1"), rdf::kInvalidTermId});
  BindingTable r({"b", "c"});
  r.AddRow({T("b1"), T("c1")});
  BindingTable j = l.LeftJoin(r);
  ASSERT_EQ(j.NumRows(), 1u);
  // The unbound b cell gets filled from the right side.
  EXPECT_EQ(j.rows()[0][1], T("b1"));
  EXPECT_EQ(j.rows()[0][2], T("c1"));
}

TEST_F(BindingTest, Project) {
  BindingTable t({"a", "b", "c"});
  t.AddRow({T("a1"), T("b1"), T("c1")});
  auto p = t.Project({"c", "a"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->vars(), (std::vector<std::string>{"c", "a"}));
  EXPECT_EQ(p->rows()[0][0], T("c1"));
  EXPECT_EQ(p->rows()[0][1], T("a1"));
  EXPECT_FALSE(t.Project({"nope"}).ok());
}

TEST_F(BindingTest, Distinct) {
  BindingTable t({"a"});
  t.AddRow({T("x")});
  t.AddRow({T("x")});
  t.AddRow({T("y")});
  t.Distinct();
  EXPECT_EQ(t.NumRows(), 2u);
}

TEST_F(BindingTest, ToSortedStringsIsCanonical) {
  // Same logical rows added in different orders with different column
  // orders must produce identical normalized output.
  BindingTable t1({"a", "b"});
  t1.AddRow({T("x"), dict_.InternInt(5)});
  t1.AddRow({T("y"), dict_.InternInt(6)});

  BindingTable t2({"b", "a"});
  t2.AddRow({dict_.InternInt(6), T("y")});
  t2.AddRow({dict_.InternLiteral("5.0"), T("x")});  // same number, diff form

  EXPECT_EQ(t1.ToSortedStrings(dict_), t2.ToSortedStrings(dict_));
}

TEST_F(BindingTest, ToStringTruncates) {
  BindingTable t({"a"});
  for (int i = 0; i < 30; ++i) t.AddRow({T("v" + std::to_string(i))});
  std::string s = t.ToString(dict_, 5);
  EXPECT_NE(s.find("30 rows total"), std::string::npos);
}

using Rows = std::vector<std::vector<rdf::TermId>>;

TEST_F(BindingTest, ZeroColumnRowsAreCounted) {
  // The reference evaluator's unit table: one row of no cells.
  BindingTable unit{std::vector<std::string>{}};
  unit.AddRow({});
  unit.AddRow({});
  EXPECT_EQ(unit.NumCols(), 0u);
  EXPECT_EQ(unit.NumRows(), 2u);
  EXPECT_TRUE(unit.Row(1).empty());
  EXPECT_EQ(RowsOf(unit), (Rows{{}, {}}));

  BindingTable r({"b"});
  r.AddRow({T("b1")});
  r.AddRow({T("b2")});
  EXPECT_EQ(unit.Join(r).NumRows(), 4u);  // cross product with two units

  BindingTable copy = unit;
  unit.Distinct();
  EXPECT_EQ(unit.NumRows(), 1u);
  EXPECT_EQ(copy.NumRows(), 2u);
  copy.TruncateRows(0);
  EXPECT_EQ(copy.NumRows(), 0u);
}

TEST_F(BindingTest, UnionAllWidensANonEmptyTable) {
  BindingTable t({"a"});
  t.AddRow({T("a1")});
  t.AddRow({T("a2")});
  BindingTable other({"b", "a"});
  other.AddRow({T("b1"), T("a3")});
  other.AddRow({T("b2"), rdf::kInvalidTermId});
  t.UnionAll(other);
  EXPECT_EQ(t.vars(), (std::vector<std::string>{"a", "b"}));
  const rdf::TermId u = rdf::kInvalidTermId;
  EXPECT_EQ(RowsOf(t), (Rows{{T("a1"), u},
                             {T("a2"), u},
                             {T("a3"), T("b1")},
                             {u, T("b2")}}));
}

/// Rows of random terms (IRIs, integers, unbound) with many duplicates.
Rows RandomRows(rdf::Dictionary* dict, size_t n, size_t width,
                uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<rdf::TermId> pool = {rdf::kInvalidTermId};
  for (int i = 0; i < 4; ++i) {
    pool.push_back(dict->InternIri("r" + std::to_string(i)));
    pool.push_back(dict->InternInt(i * 7 - 5));
  }
  Rows rows(n, std::vector<rdf::TermId>(width));
  for (auto& row : rows) {
    for (auto& cell : row) cell = pool[rng() % pool.size()];
  }
  return rows;
}

BindingTable TableOf(const std::vector<std::string>& vars, const Rows& rows) {
  BindingTable t(vars);
  for (const auto& row : rows) t.AddRow(row);
  return t;
}

TEST_F(BindingTest, DistinctMatchesAVectorOfRowsOracle) {
  for (uint32_t seed = 1; seed <= 5; ++seed) {
    Rows rows = RandomRows(&dict_, 200, 3, seed);
    BindingTable t = TableOf({"a", "b", "c"}, rows);
    t.Distinct();
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    EXPECT_EQ(RowsOf(t), rows) << "seed " << seed;
  }
}

TEST_F(BindingTest, OrderLimitOffsetMatchesAVectorOfRowsOracle) {
  const std::vector<sparql::OrderKey> order_by = {{"b", false},
                                                  {"a", true},
                                                  {"missing", false}};
  struct Window {
    int64_t limit;
    int64_t offset;
  };
  for (uint32_t seed = 1; seed <= 5; ++seed) {
    for (Window w : {Window{-1, 0}, Window{10, 0}, Window{10, 7},
                     Window{-1, 195}, Window{5, 500}, Window{0, 3}}) {
      Rows rows = RandomRows(&dict_, 200, 3, seed);
      BindingTable t = TableOf({"a", "b", "c"}, rows);
      ApplyOrderLimit(&t, order_by, w.limit, w.offset, dict_);

      // Oracle: a stable sort of the rows themselves, then the window.
      std::stable_sort(rows.begin(), rows.end(),
                       [&](const auto& x, const auto& y) {
                         int c = CompareTerms(dict_, x[1], y[1]);
                         if (c != 0) return c < 0;
                         c = CompareTerms(dict_, x[0], y[0]);
                         return c > 0;
                       });
      const size_t begin = std::min<size_t>(w.offset, rows.size());
      size_t end = rows.size();
      if (w.limit >= 0) end = std::min(end, begin + w.limit);
      EXPECT_EQ(RowsOf(t), Rows(rows.begin() + begin, rows.begin() + end))
          << "seed " << seed << " limit " << w.limit << " offset "
          << w.offset;
    }
  }
}

TEST_F(BindingTest, CopiesStayIndependentWhicheverWrites) {
  BindingTable original({"a", "b"});
  original.AddRow({T("a1"), T("b1")});
  original.AddRow({T("a2"), T("b2")});
  const Rows before = RowsOf(original);

  // The copy writes: the original keeps its cells.
  BindingTable copy = original;
  copy.MutableRow(0)[1] = T("changed");
  copy.AddRow({T("a3"), T("b3")});
  EXPECT_EQ(RowsOf(original), before);
  EXPECT_EQ(copy.Row(0)[1], T("changed"));
  EXPECT_EQ(copy.NumRows(), 3u);

  // The original writes: a copy taken before keeps the old cells.
  BindingTable snapshot = original;
  original.MutableRow(1)[0] = T("changed");
  original.DropFrontRows(1);
  EXPECT_EQ(RowsOf(snapshot), before);
  EXPECT_EQ(RowsOf(original), (Rows{{T("changed"), T("b2")}}));

  // Assignment shares too; truncation and renaming stay private.
  BindingTable assigned;
  assigned = snapshot;
  assigned.TruncateRows(1);
  assigned.RenameColumns({"x", "y"});
  EXPECT_EQ(RowsOf(snapshot), before);
  EXPECT_EQ(snapshot.vars(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(RowsOf(assigned), (Rows{before[0]}));
  EXPECT_EQ(assigned.vars(), (std::vector<std::string>{"x", "y"}));

  // A moved-from table is empty, and the target keeps the cells.
  BindingTable moved = std::move(snapshot);
  EXPECT_EQ(snapshot.NumRows(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(snapshot.NumCols(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(RowsOf(moved), before);
}

TEST_F(BindingTest, ConcurrentCopiesWriteTheirOwnCells) {
  // One shared table, copied by 8 threads at once; each thread writes its
  // own copies. The shared cells never change.
  BindingTable shared({"a", "b"});
  for (rdf::TermId r = 1; r <= 500; ++r) shared.AddRow({r, r + 1000});
  const Rows before = RowsOf(shared);
  std::vector<std::thread> threads;
  std::vector<int> wrong(8, 0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&shared, &wrong, t] {
      const rdf::TermId mark = 100000 + static_cast<rdf::TermId>(t);
      for (size_t k = 0; k < 50; ++k) {
        BindingTable mine = shared;
        mine.MutableRow(k)[0] = mark;
        mine.AddRow({mark, mark});
        BindingTable again = mine;
        again.DropFrontRows(1);
        if (mine.Row(k)[0] != mark || mine.NumRows() != 501 ||
            again.NumRows() != 500 || shared.Row(k)[0] != k + 1) {
          wrong[t]++;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(wrong, std::vector<int>(8, 0));
  EXPECT_EQ(RowsOf(shared), before);
}

}  // namespace
}  // namespace rapida::analytics
