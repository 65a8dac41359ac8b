// Differential property tests for decide_linear_gap against the
// point-pair oracle in linear_gap_oracle.hpp: the factorized search must
// agree with the oracle on feasibility everywhere the oracle can run, its
// certificate must enumerate the oracle's domain in the same canonical
// order, and the values its value_at serves must pass the oracle's own
// pair check (every ordered point pair, every orientation combo). Feasible
// certificates must also satisfy the gluing requirement in aggregate form
// (which scales to the lifted domains) and drive the synthesized
// Theta(log* n) algorithm to verifier-accepted outputs on random instances.
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "decide/classifier.hpp"
#include "hardness/undirected.hpp"
#include "lcl/serialize.hpp"
#include "linear_gap_oracle.hpp"
#include "test_util.hpp"

namespace lclpath {
namespace {

using testing::BlockPointHash;
using testing::check_pairwise;
using testing::decide_pairwise;
using testing::PairwiseSolution;

Monoid monoid_of(const PairwiseProblem& problem) {
  return Monoid::enumerate(TransitionSystem::build(problem));
}

/// The oracle is quadratic in domain points; keep it to domains where it
/// answers in well under a second even in Debug builds.
constexpr std::size_t kOracleDomainLimit = 4096;

/// The feasible function as explicit (point, value) rows in the canonical
/// enumeration order.
std::vector<std::pair<BlockPoint, BlockValue>> collect(const LinearGapCertificate& cert) {
  std::vector<std::pair<BlockPoint, BlockValue>> rows;
  rows.reserve(cert.domain_size());
  cert.for_each_point([&](const BlockPoint& point, const BlockValue& value) {
    rows.emplace_back(point, value);
  });
  return rows;
}

/// The gluing requirement in aggregate form, linear in domain points: the
/// gluing constraint reads a pair only through (right context, presented
/// b-side symbol) x (left context, s0, presented a-side symbol), so
/// collecting the presented symbol sets per class and checking every cross
/// combination against G = fwd * fwd * A(s0) covers every ordered point
/// pair — including, on undirected topologies, the symbols routed through
/// each point's reversal. Usable on the lifted domains (~10^5 points) the
/// quadratic oracle cannot touch.
void expect_certificate_glues_aggregate(const Monoid& monoid,
                                        const LinearGapCertificate& cert) {
  ASSERT_TRUE(cert.feasible);
  const TransitionSystem& ts = monoid.transitions();
  const bool directed = is_directed(ts.problem().topology());
  const std::size_t beta = ts.num_outputs();

  std::map<std::size_t, BitVector> emit;
  std::map<std::pair<std::size_t, Label>, BitVector> accept;
  auto mark = [&](auto& table, auto key, Label sym) {
    auto [it, inserted] = table.try_emplace(key, BitVector(beta));
    it->second.set(sym, true);
  };
  cert.for_each_point([&](const BlockPoint& p, const BlockValue& v) {
    if (p.kind != BlockKind::kRightEnd) {  // left role
      mark(emit, p.right, v.b);
      if (!directed) mark(accept, std::pair(monoid.reversed_index(p.right), p.s1), v.b);
    }
    if (p.kind != BlockKind::kLeftEnd) {  // right role
      mark(accept, std::pair(p.left, p.s0), v.a);
      if (!directed) mark(emit, monoid.reversed_index(p.left), v.a);
    }
  });
  for (const auto& [e1, syms1] : emit) {
    for (const auto& [key2, syms2] : accept) {
      const BitMatrix g = monoid.element(e1).fwd * monoid.element(key2.first).fwd *
                          ts.step(key2.second);
      for (Label a = 0; a < beta; ++a) {
        if (!syms1.get(a)) continue;
        for (Label b = 0; b < beta; ++b) {
          if (!syms2.get(b)) continue;
          ASSERT_TRUE(g.get(a, b))
              << "emit " << a << " at element " << e1 << " vs accept " << b
              << " at (element " << key2.first << ", s0 " << key2.second << ")";
        }
      }
    }
  }
}

/// Runs the decider and the oracle on one monoid and cross-checks
/// everything affordable.
void run_differential(const PairwiseProblem& problem) {
  SCOPED_TRACE(problem.name() + " on " + to_string(problem.topology()));
  const Monoid monoid = monoid_of(problem);
  const LinearGapCertificate cert = decide_linear_gap(monoid);
  const PairwiseSolution oracle = decide_pairwise(monoid);
  ASSERT_EQ(cert.feasible, oracle.feasible);
  if (!cert.feasible) return;
  // Same domain, same order — the certificate layout contract (the chosen
  // values may differ between the two searches).
  ASSERT_EQ(cert.ell_ctx, oracle.ell_ctx);
  const auto rows = collect(cert);
  ASSERT_EQ(rows.size(), cert.domain_size());
  ASSERT_EQ(rows.size(), oracle.domain.size());
  std::vector<BlockValue> served;
  served.reserve(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(rows[i].first == oracle.domain[i]) << "domain order at " << i;
    ASSERT_TRUE(cert.contains(rows[i].first));
    served.push_back(cert.value_at(rows[i].first));
    ASSERT_TRUE(served.back() == rows[i].second) << "value_at disagrees at " << i;
  }
  expect_certificate_glues_aggregate(monoid, cert);
  if (rows.size() > kOracleDomainLimit) return;
  const auto oracle_violation = check_pairwise(monoid, oracle.domain, oracle.choice);
  EXPECT_FALSE(oracle_violation.has_value()) << "oracle: " << oracle_violation.value_or("");
  const auto violation = check_pairwise(monoid, oracle.domain, served);
  EXPECT_FALSE(violation.has_value()) << "certificate: " << violation.value_or("");
}

TEST(LinearGapDiff, EnginesAgreeOnEveryCatalogProblem) {
  for (const CatalogEntry& entry : catalog::validation_catalog()) {
    run_differential(entry.problem);
  }
}

// The Section 3.7 undirected lifts — the domains the oracle cannot search
// (the smallest is ~6 * 10^4 points, and the oracle is quadratic in them),
// which is why the certificates are instead validated against the gluing
// requirement in aggregate form.
TEST(LinearGapDiff, FactorizedCertificatesGlueOnUndirectedLifts) {
  const PairwiseProblem sources[] = {
      catalog::coloring(3, Topology::kDirectedPath),
      catalog::two_coloring(Topology::kDirectedPath),
      catalog::constant_output(Topology::kDirectedPath),
      catalog::constant_output(),
      catalog::always_accept(),
  };
  for (const PairwiseProblem& source : sources) {
    const PairwiseProblem lifted = hardness::lift_to_undirected(source);
    SCOPED_TRACE(lifted.name());
    const Monoid monoid = monoid_of(lifted);
    const LinearGapCertificate cert = decide_linear_gap(monoid);
    // 2-coloring stays linear under the lift; the rest become feasible.
    ASSERT_EQ(cert.feasible, source.name() != "2-coloring");
    if (!cert.feasible) continue;
    expect_certificate_glues_aggregate(monoid, cert);
  }
}

// Reversed-point lookups on undirected topologies: for every domain point
// p, its reversal is a domain point too, and value_at must serve it the
// value the canonical enumeration lists for it (the undirected synthesis
// strategies look blocks up through exactly this reversal).
TEST(LinearGapDiff, ReversedPointsResolveOnUndirectedLifts) {
  const PairwiseProblem lifted =
      hardness::lift_to_undirected(catalog::constant_output(Topology::kDirectedPath));
  const Monoid monoid = monoid_of(lifted);
  const LinearGapCertificate cert = decide_linear_gap(monoid);
  ASSERT_TRUE(cert.feasible);
  std::unordered_map<BlockPoint, BlockValue, BlockPointHash> listed;
  for (const auto& [point, value] : collect(cert)) listed.emplace(point, value);
  ASSERT_EQ(listed.size(), cert.domain_size());
  for (const auto& [point, value] : listed) {
    const BlockPoint rev = point.reversed(monoid);
    ASSERT_TRUE(cert.contains(rev));
    const auto it = listed.find(rev);
    ASSERT_NE(it, listed.end());
    ASSERT_TRUE(cert.value_at(rev) == it->second);
  }
}

// Out-of-domain lookups indicate a synthesis bug; value_at rejects them
// with a std::logic_error naming the contract.
TEST(LinearGapDiff, ValueAtUnknownPointThrowsLogicError) {
  const Monoid monoid = monoid_of(catalog::coloring(3));
  const LinearGapCertificate cert = decide_linear_gap(monoid);
  ASSERT_TRUE(cert.feasible);
  const BlockPoint bad_element{BlockKind::kInterior, monoid.size() + 7, 0, 0, 0};
  const BlockPoint bad_input{BlockKind::kInterior, 0, 99, 0, 0};
  // Cycles have no end-block points at all.
  const BlockPoint bad_kind{BlockKind::kLeftEnd, 0, 0, 0, 0};
  for (const BlockPoint& bad : {bad_element, bad_input, bad_kind}) {
    EXPECT_FALSE(cert.contains(bad));
    try {
      cert.value_at(bad);
      FAIL() << "value_at accepted an out-of-domain point";
    } catch (const std::logic_error& e) {
      EXPECT_STREQ(e.what(), "LinearGapCertificate::value_at: point not in domain");
    }
  }
  // An infeasible certificate has an empty domain.
  const LinearGapCertificate none =
      decide_linear_gap(monoid_of(catalog::two_coloring(Topology::kDirectedPath)));
  ASSERT_FALSE(none.feasible);
  EXPECT_EQ(none.domain_size(), 0u);
  EXPECT_FALSE(none.contains(BlockPoint{}));
  EXPECT_THROW(none.value_at(BlockPoint{}), std::logic_error);
}

// The oracle's checks can fail. On a problem whose blocks must all agree
// on one output, switching one block to the other output breaks the
// gluing, and a value the edge relation forbids breaks the candidate
// filter.
TEST(LinearGapDiff, OracleCheckRejectsBrokenAssignments) {
  Alphabet inputs, outputs;
  inputs.add("i0");
  inputs.add("i1");
  outputs.add("x");
  outputs.add("y");
  PairwiseProblem agree("agree", inputs, outputs, Topology::kDirectedCycle);
  for (Label i = 0; i < 2; ++i) {
    agree.allow_node(i, 0);
    agree.allow_node(i, 1);
  }
  agree.allow_edge(0, 0);
  agree.allow_edge(1, 1);
  const Monoid monoid = monoid_of(agree);
  const PairwiseSolution oracle = decide_pairwise(monoid);
  ASSERT_TRUE(oracle.feasible);
  ASSERT_GE(oracle.domain.size(), 2u);
  ASSERT_FALSE(check_pairwise(monoid, oracle.domain, oracle.choice).has_value());

  std::vector<BlockValue> switched = oracle.choice;
  const Label other = switched[0].a == 0 ? 1 : 0;
  switched[0] = BlockValue{other, other};
  const auto glue = check_pairwise(monoid, oracle.domain, switched);
  ASSERT_TRUE(glue.has_value());
  EXPECT_NE(glue->find("F/F"), std::string::npos) << *glue;

  std::vector<BlockValue> forbidden = oracle.choice;
  forbidden[0] = BlockValue{0, 1};
  const auto local = check_pairwise(monoid, oracle.domain, forbidden);
  ASSERT_TRUE(local.has_value());
  EXPECT_NE(local->find("candidate filter"), std::string::npos) << *local;
}

// Random orientation-symmetric problems: the property-test sweep. Small
// alphabets keep the oracle affordable, so both searches run and must
// agree everywhere, with both assignments passing the oracle's full
// quadratic pair check.
TEST(LinearGapDiff, EnginesAgreeOnRandomProblems) {
  Rng rng(271828);
  const Topology topologies[] = {Topology::kDirectedCycle, Topology::kDirectedPath,
                                 Topology::kUndirectedCycle, Topology::kUndirectedPath};
  std::size_t decided = 0;
  for (std::size_t trial = 0; trial < 60; ++trial) {
    const Topology topology = topologies[trial % 4];
    const std::size_t alpha = 1 + rng.next_below(2);
    const std::size_t beta = 2 + rng.next_below(2);
    Alphabet inputs;
    for (std::size_t i = 0; i < alpha; ++i) {
      inputs.add(std::string("i").append(std::to_string(i)));
    }
    Alphabet outputs;
    for (std::size_t o = 0; o < beta; ++o) {
      outputs.add(std::string("o").append(std::to_string(o)));
    }
    PairwiseProblem problem("random#" + std::to_string(trial), inputs, outputs, topology);
    for (Label i = 0; i < alpha; ++i) {
      bool any = false;
      for (Label o = 0; o < beta; ++o) {
        if (rng.next_bool(2, 3)) {
          problem.allow_node(i, o);
          any = true;
        }
      }
      if (!any) problem.allow_node(i, static_cast<Label>(rng.next_below(beta)));
    }
    // Symmetric edge table so the problem is a valid undirected LCL too.
    for (Label a = 0; a < beta; ++a) {
      for (Label b = a; b < beta; ++b) {
        if (rng.next_bool(2, 3)) {
          problem.allow_edge(a, b);
          problem.allow_edge(b, a);
        }
      }
    }
    const Monoid monoid = monoid_of(problem);
    if (linear_gap_domain_size(monoid) > kOracleDomainLimit) continue;  // oracle budget
    run_differential(problem);
    ++decided;
  }
  EXPECT_GE(decided, 40u) << "random sweep lost too many trials to the domain limit";
}

// "Certificates the verifier accepts": classify log*-class catalog
// problems and simulate the synthesized algorithm built from the
// certificate on random instances.
TEST(LinearGapDiff, CertificatesDriveSynthesizedLogStar) {
  Rng rng(314159);
  for (PairwiseProblem problem :
       {catalog::coloring(3), catalog::maximal_independent_set(),
        catalog::input_gated_coloring()}) {
    SCOPED_TRACE(problem.name());
    const ClassifiedProblem result = classify(problem);
    ASSERT_EQ(result.complexity(), ComplexityClass::kLogStar) << result.summary();
    const auto algorithm = result.synthesize();
    const std::size_t r = algorithm->radius(1 << 20);
    for (const std::size_t n : {2 * r + 5, 2 * r + 38}) {
      Instance instance = random_instance(problem.topology(), n, problem.num_inputs(), rng);
      const auto sim = simulate(*algorithm, problem, instance);
      EXPECT_TRUE(sim.verdict.ok) << "n=" << n << ": " << sim.verdict.reason;
    }
  }
}

}  // namespace
}  // namespace lclpath
