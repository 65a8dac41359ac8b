#include "lba/lba.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/bitmatrix.hpp"  // hash_mix

namespace lclpath::lba {

std::string to_string(Symbol s) {
  switch (s) {
    case Symbol::k0: return "0";
    case Symbol::k1: return "1";
    case Symbol::kL: return "L";
    case Symbol::kR: return "R";
  }
  return "?";
}

Machine::Machine(std::size_t num_states, State initial, State final_state,
                 std::vector<std::string> state_names)
    : num_states_(num_states),
      initial_(initial),
      final_(final_state),
      names_(std::move(state_names)),
      delta_(num_states * kNumSymbols) {
  if (initial >= num_states || final_state >= num_states) {
    throw std::invalid_argument("Machine: state index out of range");
  }
  if (names_.empty()) {
    for (std::size_t q = 0; q < num_states; ++q) {
      names_.push_back(std::string("q").append(std::to_string(q)));
    }
  }
  if (names_.size() != num_states) {
    throw std::invalid_argument("Machine: state name count mismatch");
  }
}

const std::string& Machine::state_name(State q) const {
  if (q >= num_states_) throw std::out_of_range("Machine::state_name");
  return names_[q];
}

void Machine::set_transition(State q, Symbol s, Transition t) {
  if (q >= num_states_) throw std::out_of_range("Machine::set_transition: bad state");
  if (q == final_) {
    throw std::invalid_argument("Machine::set_transition: final state has no outgoing delta");
  }
  if (t.next_state >= num_states_) {
    throw std::out_of_range("Machine::set_transition: bad target state");
  }
  delta_[q * kNumSymbols + static_cast<std::size_t>(s)] = t;
  step_table_.reset();
}

const Transition& Machine::transition(State q, Symbol s) const {
  const auto& t = delta_[q * kNumSymbols + static_cast<std::size_t>(s)];
  if (!t) {
    throw std::logic_error("Machine::transition: delta(" + state_name(q) + ", " +
                           lba::to_string(s) + ") undefined");
  }
  return *t;
}

bool Machine::has_transition(State q, Symbol s) const {
  return delta_[q * kNumSymbols + static_cast<std::size_t>(s)].has_value();
}

void Machine::validate() const {
  for (State q = 0; q < num_states_; ++q) {
    if (q == final_) continue;
    for (std::size_t s = 0; s < kNumSymbols; ++s) {
      if (!delta_[q * kNumSymbols + s]) {
        throw std::logic_error("Machine::validate: delta(" + state_name(q) + ", " +
                               lba::to_string(static_cast<Symbol>(s)) + ") undefined");
      }
    }
  }
}

const StepTable& Machine::step_table() const {
  if (!step_table_) step_table_ = std::make_shared<const StepTable>(*this);
  return *step_table_;
}

StepTable::StepTable(const Machine& machine) : final_(machine.final_state()) {
  machine.validate();
  entries_.resize(machine.num_states() * kNumSymbols);
  for (State q = 0; q < machine.num_states(); ++q) {
    if (q == final_) continue;
    for (std::size_t s = 0; s < kNumSymbols; ++s) {
      const Transition& t = machine.transition(q, static_cast<Symbol>(s));
      Entry& e = entries_[q * kNumSymbols + s];
      e.next_state = t.next_state;
      e.write = static_cast<std::uint8_t>(t.write);
      e.dhead = t.move == Move::kLeft ? -1 : t.move == Move::kRight ? 1 : 0;
    }
  }
}

std::size_t Configuration::hash() const {
  std::size_t h = hash_mix(state, head);
  for (Symbol s : tape) h = hash_mix(h, static_cast<std::size_t>(s));
  return h;
}

PackedConfig::PackedConfig(const Machine& machine, std::size_t tape_size)
    : tape_size_(tape_size) {
  if (tape_size < 2) throw std::invalid_argument("PackedConfig: B must be >= 2");
  words_.assign(1 + (tape_size + 31) / 32, 0);
  words_[0] = static_cast<std::uint64_t>(machine.initial());  // head = 0
  // Tape (L, 0, ..., 0, R): interior cells are Symbol::k0 == 0 already.
  words_[1] |= static_cast<std::uint64_t>(Symbol::kL);
  const std::size_t last = tape_size - 1;
  words_[1 + last / 32] |= static_cast<std::uint64_t>(Symbol::kR) << (2 * (last % 32));
}

void PackedConfig::step(const StepTable& table) {
  const std::uint64_t w0 = words_[0];
  const State q = static_cast<State>(w0 & 0xFFFFFFFFu);
  if (q == table.final_state()) {
    throw std::logic_error("lba::PackedConfig::step: machine already in the final state");
  }
  const std::size_t h = static_cast<std::size_t>(w0 >> 32);
  const std::size_t word = 1 + h / 32;
  const unsigned shift = 2 * (h % 32);
  const Symbol s = static_cast<Symbol>((words_[word] >> shift) & 3u);
  const StepTable::Entry& e = table.at(q, s);
  words_[word] = (words_[word] & ~(3ull << shift)) |
                 (static_cast<std::uint64_t>(e.write) << shift);
  std::size_t next_head = h;
  if (e.dhead < 0) {
    if (h == 0) throw std::logic_error("lba::step: head moved off the left boundary");
    next_head = h - 1;
  } else if (e.dhead > 0) {
    if (h + 1 >= tape_size_) {
      throw std::logic_error("lba::step: head moved off the right boundary");
    }
    next_head = h + 1;
  }
  words_[0] = static_cast<std::uint64_t>(e.next_state) |
              (static_cast<std::uint64_t>(next_head) << 32);
}

std::size_t PackedConfig::hash() const {
  std::size_t h = tape_size_;
  for (const std::uint64_t w : words_) h = hash_mix(h, static_cast<std::size_t>(w));
  return h;
}

Configuration PackedConfig::unpack() const {
  Configuration c;
  c.state = state();
  c.head = head();
  c.tape.resize(tape_size_);
  for (std::size_t i = 0; i < tape_size_; ++i) c.tape[i] = cell(i);
  return c;
}

Configuration initial_configuration(const Machine& machine, std::size_t tape_size) {
  if (tape_size < 2) throw std::invalid_argument("initial_configuration: B must be >= 2");
  Configuration c;
  c.state = machine.initial();
  c.head = 0;
  c.tape.assign(tape_size, Symbol::k0);
  c.tape.front() = Symbol::kL;
  c.tape.back() = Symbol::kR;
  return c;
}

Configuration step(const Machine& machine, const Configuration& config) {
  if (config.state == machine.final_state()) {
    throw std::logic_error("lba::step: machine already in the final state");
  }
  const Transition& t = machine.transition(config.state, config.tape[config.head]);
  Configuration next = config;
  next.state = t.next_state;
  next.tape[config.head] = t.write;
  switch (t.move) {
    case Move::kStay: break;
    case Move::kLeft:
      if (config.head == 0) {
        throw std::logic_error("lba::step: head moved off the left boundary");
      }
      next.head = config.head - 1;
      break;
    case Move::kRight:
      if (config.head + 1 >= config.tape.size()) {
        throw std::logic_error("lba::step: head moved off the right boundary");
      }
      next.head = config.head + 1;
      break;
  }
  return next;
}

std::size_t RunResult::trace_length() const {
  return words_per_config_ == 0 ? 0 : arena_.size() / words_per_config_;
}

const std::vector<Configuration>& RunResult::trace() const {
  if (trace_.empty() && !arena_.empty()) {
    const std::size_t count = trace_length();
    trace_.reserve(count);
    for (std::size_t idx = 0; idx < count; ++idx) {
      const std::uint64_t* words = arena_.data() + idx * words_per_config_;
      Configuration c;
      c.state = static_cast<State>(words[0] & 0xFFFFFFFFu);
      c.head = static_cast<std::size_t>(words[0] >> 32);
      c.tape.resize(tape_size_);
      for (std::size_t i = 0; i < tape_size_; ++i) {
        c.tape[i] = static_cast<Symbol>((words[1 + i / 32] >> (2 * (i % 32))) & 3u);
      }
      trace_.push_back(std::move(c));
    }
  }
  return trace_;
}

namespace {
std::size_t hash_words(const std::uint64_t* words, std::size_t count, std::size_t seed) {
  std::size_t h = seed;
  for (std::size_t i = 0; i < count; ++i) {
    h = hash_mix(h, static_cast<std::size_t>(words[i]));
  }
  return h;
}
}  // namespace

RunResult run(const Machine& machine, std::size_t tape_size, std::size_t max_steps,
              const ExecutionBudget* budget) {
  const StepTable& table = machine.step_table();
  const State final_state = machine.final_state();
  RunResult result;
  PackedConfig current(machine, tape_size);
  const std::size_t wpc = current.words().size();
  result.tape_size_ = tape_size;
  result.words_per_config_ = wpc;
  std::vector<std::uint64_t>& arena = result.arena_;

  // Loop detection on an open-addressed index table over the arena: slots
  // hold trace-index + 1 (0 = empty), collisions probe linearly and are
  // resolved by comparing the packed words — no per-step allocation, no
  // node-based map. Rehashing recomputes hashes from the arena.
  std::vector<std::uint32_t> slots(1u << 10, 0);
  std::size_t mask = slots.size() - 1;
  std::size_t used = 0;
  const auto matches = [&](std::uint32_t idx) {
    return std::equal(current.words().begin(), current.words().end(),
                      arena.begin() + static_cast<std::ptrdiff_t>(idx * wpc));
  };
  const auto grow = [&] {
    std::vector<std::uint32_t> bigger(slots.size() * 2, 0);
    const std::size_t bigger_mask = bigger.size() - 1;
    for (const std::uint32_t stored : slots) {
      if (stored == 0) continue;
      const std::size_t h =
          hash_words(arena.data() + (stored - 1) * wpc, wpc, tape_size);
      std::size_t slot = h & bigger_mask;
      while (bigger[slot] != 0) slot = (slot + 1) & bigger_mask;
      bigger[slot] = stored;
    }
    slots = std::move(bigger);
    mask = bigger_mask;
  };
  // Returns the index of a previously-seen identical configuration, or
  // inserts the new index and returns npos.
  const auto find_or_insert = [&](std::uint32_t idx) -> std::size_t {
    if (used * 10 >= slots.size() * 7) grow();
    const std::size_t h = hash_words(current.words().data(), wpc, tape_size);
    for (std::size_t slot = h & mask;; slot = (slot + 1) & mask) {
      if (slots[slot] == 0) {
        slots[slot] = idx + 1;
        ++used;
        return static_cast<std::size_t>(-1);
      }
      if (matches(slots[slot] - 1)) return slots[slot] - 1;
    }
  };
  const auto push = [&] {
    arena.insert(arena.end(), current.words().begin(), current.words().end());
    budget_charge_memory(budget, wpc * sizeof(std::uint64_t));
  };

  push();
  find_or_insert(0);
  for (std::size_t s = 0; s < max_steps; ++s) {
    budget_checkpoint(budget);
    if (current.state() == final_state) {
      result.halts = true;
      result.steps = s;
      return result;
    }
    current.step(table);
    const std::size_t previous =
        find_or_insert(static_cast<std::uint32_t>(arena.size() / wpc));
    push();
    if (previous != static_cast<std::size_t>(-1)) {
      result.halts = false;
      result.loop_start = previous;
      return result;
    }
  }
  throw std::runtime_error("lba::run: exceeded max_steps without halting or looping");
}

RunStats run_headless(const Machine& machine, std::size_t tape_size,
                      std::size_t max_steps, const ExecutionBudget* budget) {
  const StepTable& table = machine.step_table();
  const State final_state = machine.final_state();
  RunStats result;
  // Brent's algorithm: the hare walks the orbit once (checking for the
  // final state before each step), the tortoise teleports to the hare at
  // powers of two. They meet after at most mu + 2 * lambda hare steps.
  PackedConfig tortoise(machine, tape_size);
  PackedConfig hare = tortoise;
  std::size_t power = 1;
  std::size_t lambda = 0;
  std::size_t hare_steps = 0;
  do {
    budget_checkpoint(budget);
    if (power == lambda) {
      tortoise = hare;
      power *= 2;
      lambda = 0;
    }
    if (hare.state() == final_state) {
      result.halts = true;
      result.steps = hare_steps;
      return result;
    }
    if (hare_steps >= 2 * max_steps + 2) {
      throw std::runtime_error(
          "lba::run_headless: exceeded max_steps without halting or looping");
    }
    hare.step(table);
    ++hare_steps;
    ++lambda;
  } while (!(tortoise == hare));

  // Cycle length lambda found; locate mu by walking two cursors lambda
  // steps apart from the start.
  PackedConfig front(machine, tape_size);
  PackedConfig back(machine, tape_size);
  for (std::size_t i = 0; i < lambda; ++i) {
    budget_checkpoint(budget);
    front.step(table);
  }
  std::size_t mu = 0;
  while (!(front == back)) {
    budget_checkpoint(budget);
    front.step(table);
    back.step(table);
    ++mu;
  }
  if (mu + lambda > max_steps) {
    throw std::runtime_error(
        "lba::run_headless: exceeded max_steps without halting or looping");
  }
  result.halts = false;
  result.loop_start = mu;
  result.loop_length = lambda;
  return result;
}

}  // namespace lclpath::lba
