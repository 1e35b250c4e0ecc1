// Table 3: required random-pattern counts for the random-pattern-resistant
// circuits DIV and COMP at conventional p = 0.5, over the (d, e) grid.
// Paper values:
//
//   | d    | e     | N(DIV)  | N(COMP)     |
//   | 1.0  | 0.95  | 499 960 | 292 808 220 |
//   | 1.0  | 0.98  | 614 590 | 355 083 821 |
//   | 1.0  | 0.999 | 966 967 | 556 622 443 |
//   | 0.98 | 0.95  | 491 827 | 247 142 478 |
//   | 0.98 | 0.98  | 608 900 | 309 063 047 |
//   | 0.98 | 0.999 | 965 591 | 510 127 655 |
//
// The shape to reproduce: N(COMP) >> N(DIV) >> any practical budget, with
// e mattering much less than the hardest fault's detection probability.
#include "bench_util.hpp"
#include "circuits/zoo.hpp"

int main() {
  using namespace protest;
  bench::print_header("Table 3: size of test sets at p = 0.5 (not optimized)");

  const std::uint64_t paper[2][3][2] = {
      {{499'960, 292'808'220}, {614'590, 355'083'821}, {966'967, 556'622'443}},
      {{491'827, 247'142'478}, {608'900, 309'063'047}, {965'591, 510'127'655}}};

  const Netlist div = make_circuit("div");
  const Netlist comp = make_circuit("comp");
  AnalysisSession session_div(div), session_comp(comp);
  const auto pf_div = bench::detectable(
      session_div.analyze(uniform_input_probs(div, 0.5)).detection_probs());
  const auto pf_comp = bench::detectable(
      session_comp.analyze(uniform_input_probs(comp, 0.5)).detection_probs());

  TextTable t({"d", "e", "N(DIV) paper", "N(DIV) ours", "N(COMP) paper",
               "N(COMP) ours"});
  const double ds[2] = {1.0, 0.98};
  const double es[3] = {0.95, 0.98, 0.999};
  for (int di = 0; di < 2; ++di)
    for (int ei = 0; ei < 3; ++ei) {
      const std::uint64_t n_div = required_test_length(pf_div, ds[di], es[ei]);
      const std::uint64_t n_comp = required_test_length(pf_comp, ds[di], es[ei]);
      t.add_row({fmt(ds[di], 2), fmt(es[ei], 3), fmt_int(paper[di][ei][0]),
                 bench::fmt_testlen(n_div), fmt_int(paper[di][ei][1]),
                 bench::fmt_testlen(n_comp)});
    }
  std::printf("%s", t.str().c_str());
  std::printf("\n(\"ours\" computed over estimated-detectable faults; the paper: "
              "\"these large pattern sets cause random pattern testing to "
              "become uneconomical\")\n");
  return 0;
}
