#include "hardness/study.hpp"

#include <utility>

#include "hardness/pi_problem.hpp"
#include "hardness/undirected.hpp"
#include "lcl/catalog.hpp"

namespace lclpath::hardness {

PairwiseProblem pi_pairwise(const lba::Machine& machine, std::size_t tape_size,
                            std::string name) {
  const PiProblem pi(machine, tape_size);
  const PiLabels& labels = pi.labels();
  const std::size_t num_in = labels.num_inputs();
  const std::size_t num_out = labels.num_outputs();

  // Decode every label once; the product loops below probe node_ok with
  // structured labels, not codec indices.
  std::vector<InLabel> ins;
  ins.reserve(num_in);
  for (Label i = 0; i < num_in; ++i) ins.push_back(labels.decode_input(i));
  std::vector<OutLabel> outs;
  outs.reserve(num_out);
  for (Label o = 0; o < num_out; ++o) outs.push_back(labels.decode_output(o));

  // Product output alphabet: one pairwise output label per (input, output)
  // pair, so the edge constraint can replay the verifier's access to the
  // predecessor's input (Lemma 2's device).
  const Alphabet in_alphabet = labels.input_alphabet();
  const Alphabet pi_out_alphabet = labels.output_alphabet();
  Alphabet out_alphabet;
  for (Label i = 0; i < num_in; ++i) {
    for (Label o = 0; o < num_out; ++o) {
      out_alphabet.add(in_alphabet.name(i) + "|" + pi_out_alphabet.name(o));
    }
  }
  const auto pack = [num_out](Label i, Label o) {
    return static_cast<Label>(i * num_out + o);
  };

  if (name.empty()) {
    name = "pi_mb_pairwise(B=" + std::to_string(tape_size) + ")";
  }
  PairwiseProblem product(std::move(name), in_alphabet, std::move(out_alphabet),
                          Topology::kDirectedPath);

  // Edge pass. Besides the edge constraint itself it derives the interior
  // node support: a pair (in, out) is usable at a node with a predecessor
  // iff *some* predecessor pair verifies with it — no separate existence
  // scan.
  std::vector<bool> any_pred(num_in * num_out, false);
  for (Label ib = 0; ib < num_in; ++ib) {
    for (Label ob = 0; ob < num_out; ++ob) {
      bool supported = false;
      for (Label ia = 0; ia < num_in; ++ia) {
        for (Label oa = 0; oa < num_out; ++oa) {
          if (pi.node_ok(1, ins[ib], outs[ob], &ins[ia], &outs[oa])) {
            product.allow_edge(pack(ia, oa), pack(ib, ob));
            supported = true;
          }
        }
      }
      any_pred[ib * num_out + ob] = supported;
    }
  }

  // Node constraints: a pairwise output is usable only when its input
  // component matches the node's actual input. Interior nodes additionally
  // need predecessor support (the edge constraint would dead-end them
  // anyway; stating it in C_node keeps the transition system small). The
  // first node instead runs the verifier's no-predecessor case.
  for (Label i = 0; i < num_in; ++i) {
    for (Label o = 0; o < num_out; ++o) {
      if (any_pred[i * num_out + o]) product.allow_node(i, pack(i, o));
      if (pi.node_ok(0, ins[i], outs[o], nullptr, nullptr)) {
        product.allow_node_first(i, pack(i, o));
      }
    }
  }

  // Last-node rule: no dangling specific-error chains (Lemma 3's Er rule).
  BitVector last(num_in * num_out);
  for (Label i = 0; i < num_in; ++i) {
    for (Label o = 0; o < num_out; ++o) {
      if (pi.allowed_at_last(outs[o])) last.set(pack(i, o), true);
    }
  }
  product.restrict_last(last);
  return product;
}

std::vector<PairwiseProblem> lift_workload() {
  std::vector<PairwiseProblem> problems;
  // Cycle lifts of directed-path problems.
  problems.push_back(lift_path_to_cycle(catalog::agreement(Topology::kDirectedPath)));
  problems.push_back(
      lift_path_to_cycle(catalog::prefix_parity(Topology::kDirectedPath)));
  // Undirected lifts across the known classes: kConstant, kLogStar, kLinear.
  problems.push_back(
      lift_to_undirected(catalog::constant_output(Topology::kDirectedPath)));
  problems.push_back(
      lift_to_undirected(catalog::two_coloring(Topology::kDirectedPath)));
  problems.push_back(
      lift_to_undirected(catalog::coloring(3, Topology::kDirectedPath)));
  problems.push_back(lift_to_undirected(catalog::shift_input()));
  // A renamed duplicate: canonical keys ignore cosmetic names, so the batch
  // engine must classify this once and share the outcome.
  PairwiseProblem renamed =
      lift_to_undirected(catalog::coloring(3, Topology::kDirectedPath));
  renamed.set_name(renamed.name() + " (renamed duplicate)");
  problems.push_back(std::move(renamed));
  return problems;
}

StudyResult classify_hardness(std::span<const PairwiseProblem> problems,
                              const StudyOptions& options) {
  MonoidCache local_monoids;
  MonoidCache* monoids =
      options.monoid_cache != nullptr ? options.monoid_cache : &local_monoids;
  const std::uint64_t hits_before = monoids->hits();
  const std::uint64_t misses_before = monoids->misses();

  BatchOptions batch;
  batch.num_threads = options.num_threads;
  batch.cache = options.batch_cache;
  batch.classify.max_monoid = options.max_monoid;
  batch.classify.monoid_cache = monoids;
  batch.classify.budget = options.budget;
  batch.problem_deadline_ms = options.problem_deadline_ms;
  batch.batch_deadline_ms = options.study_deadline_ms;

  StudyResult result;
  result.entries = classify_batch(problems, batch);
  result.summary = summarize_batch(result.entries);
  result.monoid_hits = monoids->hits() - hits_before;
  result.monoid_misses = monoids->misses() - misses_before;
  result.timeouts =
      result.summary.by_error[static_cast<std::size_t>(BatchErrorKind::kTimeout)];
  result.budget_overflows =
      result.summary.by_error[static_cast<std::size_t>(BatchErrorKind::kBudget)];
  result.cancelled =
      result.summary.by_error[static_cast<std::size_t>(BatchErrorKind::kCancelled)];
  return result;
}

}  // namespace lclpath::hardness
