#include "gen/am2910.h"

#include "gen/datapath.h"

namespace gatpg::gen {

using netlist::NodeId;

netlist::Circuit make_am2910(std::string name) {
  constexpr unsigned kWidth = 12;
  constexpr unsigned kStackDepth = 5;

  netlist::CircuitBuilder b;
  DatapathBuilder d(b);

  const Bus i = d.input_bus("i", 4);
  const Bus data = d.input_bus("d", kWidth);
  const NodeId cc_n = b.add_input("cc_n");
  const NodeId ccen_n = b.add_input("ccen_n");
  const NodeId rld_n = b.add_input("rld_n");
  const NodeId ci = b.add_input("ci");

  const Bus upc = d.register_bus("upc", kWidth);
  const Bus r = d.register_bus("r", kWidth);
  const Bus sp = d.register_bus("sp", 3);
  std::vector<Bus> stack(kStackDepth);
  for (unsigned k = 0; k < kStackDepth; ++k) {
    const std::string index = std::to_string(k);
    stack[k] = d.register_bus("f" + index + "_", kWidth);
  }

  const Bus instr = d.decoder("op", i);  // one-hot, 16 terms
  auto op = [&](Am2910Op o) { return instr[static_cast<unsigned>(o)]; };

  // Condition: pass when CCEN_n is high (disabled) or CC_n is low (true).
  const NodeId pass =
      d.or2("pass", ccen_n, d.inv("ncc", cc_n));
  const NodeId fail = d.inv("fail", pass);

  const NodeId r_zero = d.is_zero("rz", r);
  const NodeId r_nz = d.inv("rnz", r_zero);

  // ---- Y source selection -------------------------------------------------
  // D: JMAP; pass-cases of CJS/CJP/JSRP/CJV/JRP/CJPP; RPCT with R!=0;
  //    TWB fail with R==0.
  Bus d_terms{
      op(Am2910Op::kJmap),
      d.and2("yd_cjs", op(Am2910Op::kCjs), pass),
      d.and2("yd_cjp", op(Am2910Op::kCjp), pass),
      d.and2("yd_jsrp", op(Am2910Op::kJsrp), pass),
      d.and2("yd_cjv", op(Am2910Op::kCjv), pass),
      d.and2("yd_jrp", op(Am2910Op::kJrp), pass),
      d.and2("yd_cjpp", op(Am2910Op::kCjpp), pass),
      d.and2("yd_rpct", op(Am2910Op::kRpct), r_nz),
      d.and2("yd_twb",
             d.and2("yd_twb_f", op(Am2910Op::kTwb), fail), r_zero),
  };
  const NodeId sel_d = d.orn("sel_d", d_terms);

  // R: fail-cases of JSRP and JRP.
  const NodeId sel_r =
      d.or2("sel_r", d.and2("yr_jsrp", op(Am2910Op::kJsrp), fail),
            d.and2("yr_jrp", op(Am2910Op::kJrp), fail));

  // F (top of stack): RFCT with R!=0; CRTN pass; LOOP fail; TWB fail R!=0.
  Bus f_terms{
      d.and2("yf_rfct", op(Am2910Op::kRfct), r_nz),
      d.and2("yf_crtn", op(Am2910Op::kCrtn), pass),
      d.and2("yf_loop", op(Am2910Op::kLoop), fail),
      d.and2("yf_twb",
             d.and2("yf_twb_f", op(Am2910Op::kTwb), fail), r_nz),
  };
  const NodeId sel_f = d.orn("sel_f", f_terms);

  // ZERO: JZ.  uPC: everything else.
  const NodeId sel_zero = d.buf("sel_zero", op(Am2910Op::kJz));
  const NodeId sel_upc = b.add_gate(
      netlist::GateType::kNor, "sel_upc", {sel_d, sel_r, sel_f, sel_zero});

  // ---- Stack ---------------------------------------------------------------
  // sp one-hot decode (values 0..5 used; 6,7 unreachable).
  const Bus sp_onehot = d.decoder("spd", sp);
  const NodeId full = d.buf("full", sp_onehot[kStackDepth]);
  const NodeId empty = d.buf("empty", sp_onehot[0]);

  Bus push_terms{
      d.and2("pu_cjs", op(Am2910Op::kCjs), pass),
      op(Am2910Op::kPush),
      op(Am2910Op::kJsrp),
  };
  const NodeId push = d.orn("push", push_terms);
  Bus pop_terms{
      d.and2("po_rfct", op(Am2910Op::kRfct), r_zero),
      d.and2("po_crtn", op(Am2910Op::kCrtn), pass),
      d.and2("po_cjpp", op(Am2910Op::kCjpp), pass),
      d.and2("po_loop", op(Am2910Op::kLoop), pass),
      d.and2("po_twb_p", op(Am2910Op::kTwb), pass),
      d.and2("po_twb_f",
             d.and2("po_twb_fr", op(Am2910Op::kTwb), fail), r_zero),
  };
  const NodeId pop = d.orn("pop", pop_terms);
  const NodeId clear = op(Am2910Op::kJz);

  const NodeId push_eff = d.and2("push_eff", push, d.inv("nfull", full));
  const NodeId pop_eff = d.and2("pop_eff", pop, d.inv("nempty", empty));

  // Top of stack: stack[sp - 1].
  Bus tos(kWidth);
  for (unsigned bit = 0; bit < kWidth; ++bit) {
    Bus terms(kStackDepth);
    for (unsigned k = 0; k < kStackDepth; ++k) {
      terms[k] = d.and2("tos" + std::to_string(bit) + "_" + std::to_string(k),
                        sp_onehot[k + 1], stack[k][bit]);
    }
    tos[bit] = d.orn("tos" + std::to_string(bit), terms);
  }

  // sp' = clear ? 0 : push_eff ? sp+1 : pop_eff ? sp-1 : sp.
  const auto sp_inc = d.incrementer("spi", sp, d.const1("sp_one"));
  Bus minus_one{d.const1("spm0"), d.const1("spm1"), d.const1("spm2")};
  const auto sp_dec = d.adder("spdd", sp, minus_one, d.const0("sp_cin"));
  {
    const Bus after_pop = d.mux2("sp_p", pop_eff, sp_dec.sum, sp);
    const Bus after_push = d.mux2("sp_u", push_eff, sp_inc.sum, after_pop);
    const Bus next = d.gate_bus("sp_n", after_push, d.inv("nclear", clear));
    d.connect_register(sp, next);
  }

  // Stack cell write: on push, stack[sp] <- uPC.
  for (unsigned k = 0; k < kStackDepth; ++k) {
    const std::string index = std::to_string(k);
    const NodeId write = d.and2("fw" + index, push_eff, sp_onehot[k]);
    const Bus next = d.mux2("f" + index + "n", write, upc, stack[k]);
    d.connect_register(stack[k], next);
  }

  // ---- Counter/register R --------------------------------------------------
  // Load from D on RLD_n low, on LDCT, or on PUSH with pass.
  Bus rload_terms{
      d.inv("rld", rld_n),
      op(Am2910Op::kLdct),
      d.and2("rl_push", op(Am2910Op::kPush), pass),
  };
  const NodeId r_load = d.orn("r_load", rload_terms);
  Bus rdec_terms{
      d.and2("rd_rfct", op(Am2910Op::kRfct), r_nz),
      d.and2("rd_rpct", op(Am2910Op::kRpct), r_nz),
      d.and2("rd_twb",
             d.and2("rd_twb_f", op(Am2910Op::kTwb), fail), r_nz),
  };
  const NodeId r_dec = d.orn("r_dec", rdec_terms);
  Bus ones(kWidth);
  for (unsigned bit = 0; bit < kWidth; ++bit) {
    ones[bit] = d.const1("rm" + std::to_string(bit));
  }
  const auto r_minus = d.adder("rsub", r, ones, d.const0("r_cin"));
  {
    const Bus after_dec = d.mux2("r_d", r_dec, r_minus.sum, r);
    const Bus next = d.mux2("r_n", r_load, data, after_dec);
    d.connect_register(r, next);
  }

  // ---- Y and uPC -------------------------------------------------------
  Bus y(kWidth);
  for (unsigned bit = 0; bit < kWidth; ++bit) {
    const std::string index = std::to_string(bit);
    const std::string n = "y" + index;
    Bus terms{
        d.and2(n + "_d", data[bit], sel_d),
        d.and2(n + "_r", r[bit], sel_r),
        d.and2(n + "_f", tos[bit], sel_f),
        d.and2(n + "_u", upc[bit], sel_upc),
    };
    y[bit] = d.orn(n, terms);
  }
  const auto upc_next = d.incrementer("upci", y, ci);
  d.connect_register(upc, upc_next.sum);

  // ---- Outputs -------------------------------------------------------------
  d.output_bus(y);
  b.mark_output(d.inv("full_n", full));
  b.mark_output(d.or2("pl_n", op(Am2910Op::kJmap), op(Am2910Op::kCjv)));
  b.mark_output(d.inv("map_n", op(Am2910Op::kJmap)));
  b.mark_output(d.inv("vect_n", op(Am2910Op::kCjv)));

  return std::move(b).build(std::move(name));
}

}  // namespace gatpg::gen
