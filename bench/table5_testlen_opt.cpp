// Table 5: required pattern counts for DIV and COMP *with optimized input
// probabilities* — the headline result.  Paper values:
//
//   | d    | e     | N(DIV) | N(COMP) |
//   | 1.0  | 0.95  |  6 066 |  8 932  |
//   | 1.0  | 0.98  |  6 866 | 10 284  |
//   | 1.0  | 0.999 | 10 063 | 14 911  |
//   | 0.98 | 0.95  |  5 097 |  6 828  |
//   | 0.98 | 0.98  |  5 780 |  7 767  |
//   | 0.98 | 0.999 |  8 052 | 10 893  |
//
// Shape: compared with Table 3, "the test length ... was reduced by
// several orders of magnitude".
#include "bench_util.hpp"
#include "circuits/zoo.hpp"

int main() {
  using namespace protest;
  bench::print_header("Table 5: test-set sizes with optimized probabilities");

  const std::uint64_t paper[2][3][2] = {
      {{6'066, 8'932}, {6'866, 10'284}, {10'063, 14'911}},
      {{5'097, 6'828}, {5'780, 7'767}, {8'052, 10'893}}};

  auto optimized_pf = [](const char* name, std::uint64_t n_param,
                         std::vector<double>* probs_out) {
    const Netlist net = make_circuit(name);
    // Climbing only needs a gradient signal: a cheap estimator
    // configuration makes the sweep ~10x faster at equal outcome.
    SessionOptions popts;
    popts.universe = FaultUniverse::Collapsed;
    popts.estimator.maxvers = 2;
    popts.estimator.maxlist = 8;
    popts.estimator.max_candidates = 8;
    const AnalysisSession session(net, popts);
    HillClimbOptions opts;
    opts.max_sweeps = 4;
    const HillClimbResult res = optimize_input_probs(session, n_param, opts);
    *probs_out = res.probs;
    // Detection probabilities of the *structural* list under the optimized
    // tuple with the full-precision estimator, matching Table 3's universe.
    AnalysisSession full(net);
    return bench::detectable(full.analyze(res.probs).detection_probs());
  };

  std::vector<double> div_probs, comp_probs;
  const auto pf_div = optimized_pf("div", 10'000, &div_probs);
  const auto pf_comp = optimized_pf("comp", 10'000, &comp_probs);

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
  std::printf("\ncompare Table 3 (p = 0.5): the optimized tuples cut N by "
              "orders of magnitude, as in the paper.\n");
  return 0;
}
