#include "ntga/operators.h"

#include <gtest/gtest.h>

#include "sparql/parser.h"

namespace rapida::ntga {
namespace {

/// Fixture providing a dictionary with the Figure 4/5 vocabulary and
/// helpers to build triplegroups tersely.
class OperatorsTest : public ::testing::Test {
 protected:
  rdf::TermId Id(const std::string& iri) { return dict_.InternIri(iri); }
  DataPropKey Key(const std::string& p) { return DataPropKey{Id(p), 0}; }
  DataPropKey TypeKey(const std::string& o) {
    return DataPropKey{type_id_, Id(o)};
  }

  TripleGroup Tg(const std::string& subject,
                 std::initializer_list<std::pair<const char*, const char*>>
                     po_pairs) {
    TripleGroup tg;
    tg.subject = Id(subject);
    for (const auto& [p, o] : po_pairs) {
      tg.triples.push_back(rdf::Triple{tg.subject, Id(p), Id(o)});
    }
    return tg;
  }

  NestedTripleGroup Nest(int num_stars, int star, TripleGroup tg) {
    NestedTripleGroup ntg;
    ntg.stars.resize(num_stars);
    ntg.stars[star] = std::move(tg);
    return ntg;
  }

  rdf::Dictionary dict_;
  rdf::TermId type_id_ = dict_.InternIri(rdf::kRdfType);
};

// ---------------------------------------------------------------------------
// Figure 4(a): σ^γopt with P_prim={product, price},
// P_opt={validFrom, validTo}.
// ---------------------------------------------------------------------------
TEST_F(OperatorsTest, Fig4aOptionalGroupFilter) {
  std::vector<TripleGroup> tgs = {
      Tg("o1", {{"product", "p1"}, {"price", "100"}, {"validTo", "d1"}}),
      Tg("o2", {{"product", "p2"}, {"price", "200"}}),
      Tg("o3", {{"product", "p3"}, {"validFrom", "d2"}}),  // no price
      Tg("o4", {{"product", "p4"},
                {"price", "400"},
                {"validFrom", "d3"},
                {"validTo", "d4"}}),
  };
  std::set<DataPropKey> prim = {Key("product"), Key("price")};
  std::set<DataPropKey> opt = {Key("validFrom"), Key("validTo")};
  std::vector<TripleGroup> out =
      OptionalGroupFilter(tgs, prim, opt, type_id_);
  // tg1, tg2, tg4 pass; tg3 lacks the primary property price.
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].subject, Id("o1"));
  EXPECT_EQ(out[1].subject, Id("o2"));
  EXPECT_EQ(out[2].subject, Id("o4"));
}

TEST_F(OperatorsTest, OptionalGroupFilterProjectsIrrelevantTriples) {
  std::vector<TripleGroup> tgs = {
      Tg("o1", {{"product", "p1"}, {"price", "100"}, {"junk", "x"}}),
  };
  std::set<DataPropKey> prim = {Key("product"), Key("price")};
  std::vector<TripleGroup> out = OptionalGroupFilter(tgs, prim, {}, type_id_);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].triples.size(), 2u);  // junk dropped
}

TEST_F(OperatorsTest, TypeRestrictionsAreDistinctProps) {
  std::vector<TripleGroup> tgs = {
      Tg("p1", {{rdf::kRdfType, "PT18"}, {"pf", "f1"}}),
      Tg("p2", {{rdf::kRdfType, "PT9"}, {"pf", "f1"}}),
  };
  std::set<DataPropKey> prim = {TypeKey("PT18")};
  std::set<DataPropKey> opt = {Key("pf")};
  std::vector<TripleGroup> out = OptionalGroupFilter(tgs, prim, opt, type_id_);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].subject, Id("p1"));
}

// ---------------------------------------------------------------------------
// Figure 4(b)/(c): n-split.
// ---------------------------------------------------------------------------
TEST_F(OperatorsTest, Fig4bNSplit) {
  // TG' after the filter; sec1={validFrom}, sec2={validTo}.
  std::set<DataPropKey> prim = {Key("product"), Key("price")};
  std::vector<std::set<DataPropKey>> secs = {{Key("validFrom")},
                                             {Key("validTo")}};

  TripleGroup tg1 =
      Tg("o1", {{"product", "p1"}, {"price", "100"}, {"validTo", "d1"}});
  TripleGroup tg4 = Tg("o4", {{"product", "p4"},
                              {"price", "400"},
                              {"validFrom", "d3"},
                              {"validTo", "d4"}});
  TripleGroup tg2 = Tg("o2", {{"product", "p2"}, {"price", "200"}});

  auto split1 = NSplit(tg1, prim, secs, type_id_);
  EXPECT_FALSE(split1[0].has_value());  // tg1 lacks validFrom
  ASSERT_TRUE(split1[1].has_value());   // tg_12
  EXPECT_EQ(split1[1]->triples.size(), 3u);

  auto split4 = NSplit(tg4, prim, secs, type_id_);
  ASSERT_TRUE(split4[0].has_value());  // tg_41
  ASSERT_TRUE(split4[1].has_value());  // tg_42
  // tg_41 has product/price/validFrom but NOT validTo.
  EXPECT_FALSE(split4[0]->HasProp(Key("validTo"), type_id_));
  EXPECT_TRUE(split4[0]->HasProp(Key("validFrom"), type_id_));
  // tg_42 is the mirror.
  EXPECT_FALSE(split4[1]->HasProp(Key("validFrom"), type_id_));

  auto split2 = NSplit(tg2, prim, secs, type_id_);
  EXPECT_FALSE(split2[0].has_value());
  EXPECT_FALSE(split2[1].has_value());
}

TEST_F(OperatorsTest, Fig4cNSplitWithEmptyFirstCombination) {
  // sec1={} (primary-only pattern), sec2={validTo}: every group with the
  // primaries yields combination 1 regardless of optional props.
  std::set<DataPropKey> prim = {Key("product"), Key("price")};
  std::vector<std::set<DataPropKey>> secs = {{}, {Key("validTo")}};

  TripleGroup tg4 = Tg("o4", {{"product", "p4"},
                              {"price", "400"},
                              {"validFrom", "d3"},
                              {"validTo", "d4"}});
  auto split = NSplit(tg4, prim, secs, type_id_);
  ASSERT_TRUE(split[0].has_value());
  EXPECT_EQ(split[0]->triples.size(), 2u);  // primary only
  ASSERT_TRUE(split[1].has_value());
  EXPECT_EQ(split[1]->triples.size(), 3u);
}

// ---------------------------------------------------------------------------
// Table 2: α-Join conditions. Each row is a (GP1, GP2) pair over composite
// stars ab..:de..; the parameterized test drives the operator through all
// rows, checking which prop-combinations survive.
// ---------------------------------------------------------------------------

struct AlphaRow {
  const char* name;
  // Secondary property layout (presence flags per candidate combination).
  bool c_in_alpha1, f_in_alpha1, g_in_alpha1;  // required-present in α1
  bool c_absent_alpha1, f_absent_alpha1, g_absent_alpha1;  // required-absent
  bool c_in_alpha2, f_in_alpha2, g_in_alpha2;
  bool c_absent_alpha2, f_absent_alpha2, g_absent_alpha2;
  // A data combination (c/f/g present on the joined group).
  bool has_c, has_f, has_g;
  bool expect_kept;
};

class AlphaJoinTableTest : public OperatorsTest,
                           public ::testing::WithParamInterface<AlphaRow> {};

TEST_P(AlphaJoinTableTest, Row) {
  const AlphaRow& row = GetParam();
  // Star 0 carries c, star 1 carries f and g.
  NestedTripleGroup ntg;
  ntg.stars.resize(2);
  {
    std::initializer_list<std::pair<const char*, const char*>> base = {
        {"a", "x"}, {"b", "y"}};
    TripleGroup s0 = Tg("s0", base);
    if (row.has_c) s0.triples.push_back(rdf::Triple{Id("s0"), Id("c"), Id("v")});
    ntg.stars[0] = s0;
    TripleGroup s1 = Tg("s1", {{"d", "x"}, {"e", "y"}});
    if (row.has_f) s1.triples.push_back(rdf::Triple{Id("s1"), Id("f"), Id("v")});
    if (row.has_g) s1.triples.push_back(rdf::Triple{Id("s1"), Id("g"), Id("v")});
    ntg.stars[1] = s1;
  }

  auto build = [this](bool c_req, bool f_req, bool g_req, bool c_abs,
                      bool f_abs, bool g_abs) {
    AlphaCondition cond;
    if (c_req) cond.push_back({0, Key("c"), true});
    if (c_abs) cond.push_back({0, Key("c"), false});
    if (f_req) cond.push_back({1, Key("f"), true});
    if (f_abs) cond.push_back({1, Key("f"), false});
    if (g_req) cond.push_back({1, Key("g"), true});
    if (g_abs) cond.push_back({1, Key("g"), false});
    return cond;
  };
  std::vector<AlphaCondition> alphas = {
      build(row.c_in_alpha1, row.f_in_alpha1, row.g_in_alpha1,
            row.c_absent_alpha1, row.f_absent_alpha1, row.g_absent_alpha1),
      build(row.c_in_alpha2, row.f_in_alpha2, row.g_in_alpha2,
            row.c_absent_alpha2, row.f_absent_alpha2, row.g_absent_alpha2),
  };
  EXPECT_EQ(SatisfiesAnyAlpha(ntg, alphas, type_id_), row.expect_kept)
      << row.name;
}

// Rows 2-5 of Table 2 (row 1 has no secondary props — no α needed),
// plus combinations the paper calls out as "irrelevant patterns".
INSTANTIATE_TEST_SUITE_P(
    Table2, AlphaJoinTableTest,
    ::testing::Values(
        // Row 2: ab:de vs ab:def — α1: f=∅; α2: f≠∅. Everything survives.
        AlphaRow{"row2_no_f", false, false, false, false, true, false,
                 false, true, false, false, false, false,
                 false, false, false, true},
        AlphaRow{"row2_with_f", false, false, false, false, true, false,
                 false, true, false, false, false, false,
                 false, true, false, true},
        // Row 3: ab:de vs abc:def — α1: c=∅∧f=∅; α2: c≠∅∧f≠∅.
        AlphaRow{"row3_neither", false, false, false, true, true, false,
                 true, true, false, false, false, false,
                 false, false, false, true},
        AlphaRow{"row3_both", false, false, false, true, true, false,
                 true, true, false, false, false, false,
                 true, true, false, true},
        AlphaRow{"row3_only_c_dropped", false, false, false, true, true,
                 false, true, true, false, false, false, false,
                 true, false, false, false},
        AlphaRow{"row3_only_f_dropped", false, false, false, true, true,
                 false, true, true, false, false, false, false,
                 false, true, false, false},
        // Row 4: abc:de vs ab:def — α1: c≠∅∧f=∅; α2: c=∅∧f≠∅.
        AlphaRow{"row4_c_only", true, false, false, false, true, false,
                 false, true, false, true, false, false,
                 true, false, false, true},
        AlphaRow{"row4_f_only", true, false, false, false, true, false,
                 false, true, false, true, false, false,
                 false, true, false, true},
        AlphaRow{"row4_both_dropped", true, false, false, false, true,
                 false, false, true, false, true, false, false,
                 true, true, false, false},
        AlphaRow{"row4_neither_dropped", true, false, false, false, true,
                 false, false, true, false, true, false, false,
                 false, false, false, false},
        // Row 5: abc:de vs ab:defg — α1: c≠∅∧f=∅∧g=∅; α2: c=∅∧f≠∅∧g≠∅.
        // "abcdefg" (all present) matches neither.
        AlphaRow{"row5_abcdefg_dropped", true, false, false, false, true,
                 true, false, true, true, true, false, false,
                 true, true, true, false},
        AlphaRow{"row5_abdef_dropped", true, false, false, false, true,
                 true, false, true, true, true, false, false,
                 false, true, false, false},
        AlphaRow{"row5_abcde_kept", true, false, false, false, true, true,
                 false, true, true, true, false, false,
                 true, false, false, true},
        AlphaRow{"row5_abdefg_kept", true, false, false, false, true, true,
                 false, true, true, true, false, false,
                 false, true, true, true}),
    [](const ::testing::TestParamInfo<AlphaRow>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// α-Join end-to-end (Def. 3.5) on a small composite pattern.
// ---------------------------------------------------------------------------
TEST_F(OperatorsTest, AlphaJoinSubjectObject) {
  // Pattern: star0 = products, star1 = offers joining on pr (object of
  // star1's tp, subject of star0).
  ResolvedJoin join;
  join.star_a = 1;
  join.role_a = JoinRole::kObject;
  join.prop_a = Key("pr");
  join.star_b = 0;
  join.role_b = JoinRole::kSubject;

  std::vector<NestedTripleGroup> products = {
      Nest(2, 0, Tg("p1", {{rdf::kRdfType, "PT18"}})),
      Nest(2, 0, Tg("p2", {{rdf::kRdfType, "PT18"}, {"pf", "f1"}})),
  };
  std::vector<NestedTripleGroup> offers = {
      Nest(2, 1, Tg("o1", {{"pr", "p1"}, {"pc", "100"}})),
      Nest(2, 1, Tg("o2", {{"pr", "p2"}, {"pc", "200"}})),
      Nest(2, 1, Tg("o3", {{"pr", "p9"}, {"pc", "300"}})),  // dangling
  };
  std::vector<NestedTripleGroup> joined =
      AlphaJoin(offers, products, join, {}, type_id_);
  ASSERT_EQ(joined.size(), 2u);
  for (const NestedTripleGroup& ntg : joined) {
    EXPECT_TRUE(ntg.IsFilled(0));
    EXPECT_TRUE(ntg.IsFilled(1));
  }
}

TEST_F(OperatorsTest, AlphaJoinFiltersByAlpha) {
  ResolvedJoin join;
  join.star_a = 1;
  join.role_a = JoinRole::kObject;
  join.prop_a = Key("pr");
  join.star_b = 0;
  join.role_b = JoinRole::kSubject;

  std::vector<NestedTripleGroup> products = {
      Nest(2, 0, Tg("p1", {{rdf::kRdfType, "PT18"}})),           // no pf
      Nest(2, 0, Tg("p2", {{rdf::kRdfType, "PT18"}, {"pf", "f1"}})),
  };
  std::vector<NestedTripleGroup> offers = {
      Nest(2, 1, Tg("o1", {{"pr", "p1"}, {"pc", "100"}})),
      Nest(2, 1, Tg("o2", {{"pr", "p2"}, {"pc", "200"}})),
  };
  // Single α: pf must be present on star 0.
  std::vector<AlphaCondition> alphas = {{{0, Key("pf"), true}}};
  std::vector<NestedTripleGroup> joined =
      AlphaJoin(offers, products, join, alphas, type_id_);
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0].stars[0].subject, Id("p2"));
}

TEST_F(OperatorsTest, AlphaJoinObjectObject) {
  ResolvedJoin join;
  join.star_a = 0;
  join.role_a = JoinRole::kObject;
  join.prop_a = Key("ve");
  join.star_b = 1;
  join.role_b = JoinRole::kObject;
  join.prop_b = Key("cn");

  std::vector<NestedTripleGroup> left = {
      Nest(2, 0, Tg("s1", {{"ve", "x"}})),
  };
  std::vector<NestedTripleGroup> right = {
      Nest(2, 1, Tg("s2", {{"cn", "x"}})),
      Nest(2, 1, Tg("s3", {{"cn", "y"}})),
  };
  std::vector<NestedTripleGroup> joined =
      AlphaJoin(left, right, join, {}, type_id_);
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0].stars[1].subject, Id("s2"));
}

TEST_F(OperatorsTest, AlphaJoinMultiValuedEmitsOncePerPair) {
  // Left star's join property has two values both matching the same right
  // group: the pair must be emitted once, not twice.
  ResolvedJoin join;
  join.star_a = 0;
  join.role_a = JoinRole::kObject;
  join.prop_a = Key("ve");
  join.star_b = 1;
  join.role_b = JoinRole::kObject;
  join.prop_b = Key("cn");

  std::vector<NestedTripleGroup> left = {
      Nest(2, 0, Tg("s1", {{"ve", "x"}, {"ve", "y"}})),
  };
  std::vector<NestedTripleGroup> right = {
      Nest(2, 1, Tg("s2", {{"cn", "x"}, {"cn", "y"}})),
  };
  std::vector<NestedTripleGroup> joined =
      AlphaJoin(left, right, join, {}, type_id_);
  EXPECT_EQ(joined.size(), 1u);
}

// ---------------------------------------------------------------------------
// Figure 5: TG Agg-Join computing feature-country groupings.
// ---------------------------------------------------------------------------
class AggJoinFig5Test : public OperatorsTest {
 protected:
  void SetUp() override {
    // Composite pattern (resolved by hand): star0 = product {ty18, pf},
    // star1 = offer {pr, pc, ve}, star2 = vendor {cn}.
    pattern_.type_id = type_id_;
    {
      ResolvedStar s;
      s.subject_var = "s1";
      s.triples.push_back({TypeKey("PT18"), "", rdf::kInvalidTermId});
      s.triples.push_back({Key("pf"), "feature", rdf::kInvalidTermId});
      s.primary = {TypeKey("PT18")};
      s.secondary = {Key("pf")};
      pattern_.stars.push_back(s);
    }
    {
      ResolvedStar s;
      s.subject_var = "s2";
      s.triples.push_back({Key("pr"), "s1", rdf::kInvalidTermId});
      s.triples.push_back({Key("pc"), "price", rdf::kInvalidTermId});
      s.triples.push_back({Key("ve"), "s3", rdf::kInvalidTermId});
      s.primary = {Key("pr"), Key("pc"), Key("ve")};
      pattern_.stars.push_back(s);
    }
    {
      ResolvedStar s;
      s.subject_var = "s3";
      s.triples.push_back({Key("cn"), "country", rdf::kInvalidTermId});
      s.primary = {Key("cn")};
      pattern_.stars.push_back(s);
    }
  }

  /// A fully-joined detail group: product (optionally with a feature),
  /// offer with price, vendor with country.
  NestedTripleGroup Detail(const char* prod, const char* feature,
                           const char* offer, int price, const char* vendor,
                           const char* country) {
    NestedTripleGroup ntg;
    ntg.stars.resize(3);
    TripleGroup p = Tg(prod, {{rdf::kRdfType, "PT18"}});
    if (feature != nullptr) {
      p.triples.push_back(rdf::Triple{Id(prod), Id("pf"), Id(feature)});
    }
    ntg.stars[0] = p;
    TripleGroup o;
    o.subject = Id(offer);
    o.triples.push_back(rdf::Triple{Id(offer), Id("pr"), Id(prod)});
    o.triples.push_back(
        rdf::Triple{Id(offer), Id("pc"), dict_.InternInt(price)});
    o.triples.push_back(rdf::Triple{Id(offer), Id("ve"), Id(vendor)});
    ntg.stars[1] = o;
    ntg.stars[2] = Tg(vendor, {{"cn", country}});
    return ntg;
  }

  ResolvedPattern pattern_;
};

TEST_F(AggJoinFig5Test, GroupsByFeatureCountryWithAlpha) {
  std::vector<NestedTripleGroup> detail = {
      Detail("p1", "Feat1", "o1", 100, "v1", "UK"),
      Detail("p2", nullptr, "o2", 200, "v2", "UK"),   // no pf -> excluded
      Detail("p3", "Feat2", "o3", 300, "v3", "DE"),
      Detail("p4", "Feat1", "o4", 400, "v4", "UK"),
  };
  AggJoinSpec spec;
  spec.group_vars = {"feature", "country"};
  spec.aggs = {{sparql::AggFunc::kSum, "price", false, "sumF"},
               {sparql::AggFunc::kCount, "price", false, "countF"}};
  spec.alpha = {{0, Key("pf"), true}};  // pf != {}

  std::vector<AggregatedGroup> out =
      AggJoin(detail, pattern_, spec, nullptr, &dict_);
  ASSERT_EQ(out.size(), 2u);  // (Feat1,UK), (Feat2,DE)
  for (const AggregatedGroup& g : out) {
    std::string_view feature = dict_.Get(g.key[0]).text;
    if (feature == "Feat1") {
      EXPECT_EQ(dict_.Get(g.key[1]).text, "UK");
      EXPECT_DOUBLE_EQ(*dict_.AsNumber(g.values[0]), 500);  // 100+400
      EXPECT_DOUBLE_EQ(*dict_.AsNumber(g.values[1]), 2);
    } else {
      EXPECT_EQ(feature, "Feat2");
      EXPECT_DOUBLE_EQ(*dict_.AsNumber(g.values[0]), 300);
    }
  }
}

TEST_F(AggJoinFig5Test, EmptyRngBaseKeepsDefaults) {
  // Def 3.6: a base triplegroup whose RNG is empty keeps default values
  // (count 0); base keys are supplied explicitly.
  std::vector<NestedTripleGroup> detail = {
      Detail("p1", "Feat1", "o1", 100, "v1", "UK"),
  };
  std::vector<std::vector<rdf::TermId>> base = {
      {Id("Feat1"), Id("UK")},
      {Id("Feat9"), Id("FR")},  // no detail matches
  };
  AggJoinSpec spec;
  spec.group_vars = {"feature", "country"};
  spec.aggs = {{sparql::AggFunc::kCount, "price", false, "countF"}};
  spec.alpha = {{0, Key("pf"), true}};

  std::vector<AggregatedGroup> out =
      AggJoin(detail, pattern_, spec, &base, &dict_);
  ASSERT_EQ(out.size(), 2u);
  for (const AggregatedGroup& g : out) {
    double count = *dict_.AsNumber(g.values[0]);
    if (dict_.Get(g.key[0]).text == "Feat9") {
      EXPECT_DOUBLE_EQ(count, 0);
    } else {
      EXPECT_DOUBLE_EQ(count, 1);
    }
  }
}

TEST_F(AggJoinFig5Test, GroupByAllSingleGroup) {
  std::vector<NestedTripleGroup> detail = {
      Detail("p1", "Feat1", "o1", 100, "v1", "UK"),
      Detail("p2", nullptr, "o2", 200, "v2", "UK"),
  };
  AggJoinSpec spec;  // θ empty = ALL, no α
  spec.aggs = {{sparql::AggFunc::kSum, "price", false, "sumT"},
               {sparql::AggFunc::kCount, "price", false, "cntT"}};
  std::vector<AggregatedGroup> out =
      AggJoin(detail, pattern_, spec, nullptr, &dict_);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(*dict_.AsNumber(out[0].values[0]), 300);
  EXPECT_DOUBLE_EQ(*dict_.AsNumber(out[0].values[1]), 2);
}

TEST_F(AggJoinFig5Test, MultiValuedFeatureFansOut) {
  // One product with two features: its offer's price contributes to both
  // feature groups (SPARQL multiplicity).
  NestedTripleGroup d = Detail("p1", "Feat1", "o1", 100, "v1", "UK");
  d.stars[0].triples.push_back(
      rdf::Triple{Id("p1"), Id("pf"), Id("Feat2")});
  AggJoinSpec spec;
  spec.group_vars = {"feature"};
  spec.aggs = {{sparql::AggFunc::kSum, "price", false, "sumF"}};
  spec.alpha = {{0, Key("pf"), true}};
  std::vector<AggregatedGroup> out = AggJoin({d}, pattern_, spec, nullptr,
                                             &dict_);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(*dict_.AsNumber(out[0].values[0]), 100);
  EXPECT_DOUBLE_EQ(*dict_.AsNumber(out[1].values[0]), 100);
}

TEST_F(AggJoinFig5Test, CountStar) {
  std::vector<NestedTripleGroup> detail = {
      Detail("p1", "Feat1", "o1", 100, "v1", "UK"),
      Detail("p2", "Feat1", "o2", 200, "v2", "UK"),
  };
  AggJoinSpec spec;
  spec.group_vars = {"country"};
  spec.aggs = {{sparql::AggFunc::kCount, "", true, "n"}};
  std::vector<AggregatedGroup> out =
      AggJoin(detail, pattern_, spec, nullptr, &dict_);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(*dict_.AsNumber(out[0].values[0]), 2);
}

// ---------------------------------------------------------------------------
// ExpandBindings corner cases.
// ---------------------------------------------------------------------------
TEST_F(AggJoinFig5Test, ExpandBindingsIntersectsMultipleSources) {
  // Variable bound in two positions (join var): candidates are the
  // intersection, not the union.
  ResolvedPattern pattern;
  pattern.type_id = type_id_;
  {
    ResolvedStar s;
    s.subject_var = "a";
    s.triples.push_back({Key("ve"), "x", rdf::kInvalidTermId});
    pattern.stars.push_back(s);
  }
  {
    ResolvedStar s;
    s.subject_var = "b";
    s.triples.push_back({Key("cn"), "x", rdf::kInvalidTermId});
    pattern.stars.push_back(s);
  }
  NestedTripleGroup ntg;
  ntg.stars.resize(2);
  ntg.stars[0] = Tg("s1", {{"ve", "x1"}, {"ve", "x2"}});
  ntg.stars[1] = Tg("s2", {{"cn", "x2"}, {"cn", "x3"}});
  auto rows = ExpandBindings(ntg, pattern, {"x"}, true);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Id("x2"));
}

TEST_F(AggJoinFig5Test, ExpandBindingsSkipUnbound) {
  NestedTripleGroup d = Detail("p1", nullptr, "o1", 100, "v1", "UK");
  auto with_skip = ExpandBindings(d, pattern_, {"feature"}, true);
  EXPECT_TRUE(with_skip.empty());
  auto without_skip = ExpandBindings(d, pattern_, {"feature"}, false);
  ASSERT_EQ(without_skip.size(), 1u);
  EXPECT_EQ(without_skip[0][0], rdf::kInvalidTermId);
}

// ---------------------------------------------------------------------------
// Serialization round trips.
// ---------------------------------------------------------------------------
TEST_F(OperatorsTest, TripleGroupSerializationRoundTrip) {
  TripleGroup tg = Tg("o1", {{"product", "p1"}, {"price", "100"}});
  auto parsed = ParseTripleGroup(SerializeTripleGroup(tg));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, tg);
}

TEST_F(OperatorsTest, NestedSerializationRoundTrip) {
  NestedTripleGroup ntg;
  ntg.stars.resize(3);
  ntg.stars[0] = Tg("p1", {{rdf::kRdfType, "PT18"}});
  ntg.stars[2] = Tg("v1", {{"cn", "UK"}});
  auto parsed = ParseNested(SerializeNested(ntg), 3);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, ntg);
  EXPECT_FALSE(parsed->IsFilled(1));
}

TEST_F(OperatorsTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseTripleGroup("").ok());
  EXPECT_FALSE(ParseTripleGroup("abc").ok());
  EXPECT_FALSE(ParseTripleGroup("1;nocomma").ok());
  EXPECT_FALSE(ParseNested("9:1", 3).ok());
  EXPECT_FALSE(ParseNested("nocolon", 3).ok());
}

}  // namespace
}  // namespace rapida::ntga
