#include "gen/multiplier.h"

#include <stdexcept>

#include "gen/datapath.h"

namespace gatpg::gen {

using netlist::NodeId;

netlist::Circuit make_multiplier(unsigned width, std::string name) {
  if (width < 2 || width > 32) {
    throw std::invalid_argument("multiplier width out of range");
  }
  if (name.empty()) name = "mult" + std::to_string(width);

  netlist::CircuitBuilder b;
  DatapathBuilder d(b);

  // reset gives the controller a synchronizing input (the datapath defines
  // itself on load); without it the busy flag could never leave X from the
  // power-up unknown state.
  const NodeId reset = b.add_input("reset");
  const NodeId start = b.add_input("start");
  const Bus a_in = d.input_bus("a", width);
  const Bus b_in = d.input_bus("b", width);

  // State: multiplicand M, accumulator A (width+1 bits for Booth headroom),
  // multiplier/low-product Q, Booth bit q_prev, cycle counter, busy flag.
  unsigned cnt_bits = 1;
  while ((1u << cnt_bits) < width) ++cnt_bits;
  const Bus m = d.register_bus("m", width);
  const Bus acc = d.register_bus("acc", width + 1);
  const Bus q = d.register_bus("q", width);
  const NodeId q_prev = b.add_dff("qprev");
  const Bus count = d.register_bus("cnt", cnt_bits);
  const NodeId busy = b.add_dff("busy");

  const NodeId idle = d.inv("idle", busy);
  const NodeId load = d.and2("load", start, idle);
  const NodeId nload = d.inv("nload", load);

  // Booth recoding of (Q0, q_prev): 01 -> add M, 10 -> subtract M.
  const NodeId nq0 = d.inv("nq0", q[0]);
  const NodeId nqp = d.inv("nqp", q_prev);
  const NodeId add_en = d.and2("add_en", nq0, q_prev);
  const NodeId sub_en = d.and2("sub_en", q[0], nqp);
  const NodeId op_en = d.or2("op_en", add_en, sub_en);

  // Sign-extended operand, gated by op_en and complemented for subtract.
  Bus m_ext = m;
  m_ext.push_back(m[width - 1]);  // sign extension to width+1
  Bus operand(width + 1);
  for (unsigned i = 0; i <= width; ++i) {
    const std::string n = "opd" + std::to_string(i);
    const NodeId gated = d.and2(n + "_g", m_ext[i], op_en);
    operand[i] = d.xor2(n, gated, sub_en);
  }
  const auto sum = d.adder("badd", acc, operand, sub_en);

  // Arithmetic right shift of {sum, Q}.
  Bus acc_shifted(width + 1);
  for (unsigned i = 0; i < width; ++i) acc_shifted[i] = sum.sum[i + 1];
  acc_shifted[width] = sum.sum[width];  // keep sign
  Bus q_shifted(width);
  for (unsigned i = 0; i + 1 < width; ++i) q_shifted[i] = q[i + 1];
  q_shifted[width - 1] = sum.sum[0];

  // Counter and completion.
  const auto count_inc = d.incrementer("cinc", count, d.const1("cone"));
  Bus last_terms(cnt_bits);
  for (unsigned i = 0; i < cnt_bits; ++i) {
    const bool bit = ((width - 1) >> i) & 1;
    last_terms[i] = bit ? count[i] : d.inv("lt" + std::to_string(i), count[i]);
  }
  const NodeId last = d.andn("last", last_terms);
  const NodeId step = d.and2("step", busy, d.inv("nlast", last));

  // busy' = NOT reset AND (load OR (busy AND NOT last))
  const NodeId nreset = d.inv("nreset", reset);
  b.set_dff_input(busy,
                  d.and2("busy_n", d.or2("busy_o", load, step), nreset));

  // count' = load ? 0 : busy ? count+1 : count
  {
    const Bus held = d.mux2("cnt_h", busy, count_inc.sum, count);
    const Bus next = d.gate_bus("cnt_n", held, nload);
    d.connect_register(count, next);
  }
  // M' = load ? a_in : M
  d.connect_register(m, d.mux2("m_n", load, a_in, m));
  // A' = load ? 0 : busy ? shifted : A
  {
    const Bus held = d.mux2("acc_h", busy, acc_shifted, acc);
    d.connect_register(acc, d.gate_bus("acc_n", held, nload));
  }
  // Q' = load ? b_in : busy ? shifted : Q
  {
    const Bus held = d.mux2("q_h", busy, q_shifted, q);
    d.connect_register(q, d.mux2("q_n", load, b_in, held));
  }
  // q_prev' = load ? 0 : busy ? Q0 : q_prev
  {
    const NodeId held =
        d.or2("qp_h", d.and2("qp_a", busy, q[0]),
              d.and2("qp_b", d.inv("qp_nb", busy), q_prev));
    b.set_dff_input(q_prev, d.and2("qp_n", held, nload));
  }

  // Outputs: product = {A[width-1:0], Q}, plus done.
  for (unsigned i = 0; i < width; ++i) {
    const std::string index = std::to_string(i);
    b.mark_output(d.buf("p" + index, q[i]));
  }
  for (unsigned i = 0; i < width; ++i) {
    const std::string index = std::to_string(width + i);
    b.mark_output(d.buf("p" + index, acc[i]));
  }
  b.mark_output(d.inv("done", busy));

  return std::move(b).build(std::move(name));
}

}  // namespace gatpg::gen
