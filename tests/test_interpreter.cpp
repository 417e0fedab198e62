// The interpreter's results pinned bit for bit, and the reuse of one
// thread's simulated memory from run to run.
//
// Every tuning curve, identical-binary decision and checkpoint rests on
// the cycle counts below, so the cost model must charge the same doubles
// in the same order whatever the interpreter's internals. The recorded
// values come from the interpreter as it stood before call sites were
// linked once per run and the memory image was reused: each suite
// program at -O0 and as the evaluator's -O3 build, under both machine
// models, plus one run of each trap kind.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_suite/suite.hpp"
#include "ir/builder.hpp"
#include "ir/interpreter.hpp"
#include "sim/evaluator.hpp"
#include "sim/machine.hpp"
#include "support/thread_pool.hpp"

using namespace citroen;
using namespace citroen::ir;

namespace {

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

struct PinnedRun {
  const char* program;
  const char* build;    ///< "O0" (the suite program) or "O3" (evaluator build)
  const char* machine;  ///< "a57" or "zen"
  std::int64_t ret;
  std::uint64_t instructions;
  double cycles;
  /// Every module's cycles, in program order.
  std::vector<std::pair<const char*, double>> module_cycles;
};

/// ProgramEvaluator::hot_modules() of the -O3 build: it sums the
/// reference run's module cycles in the map's iteration order.
struct PinnedHot {
  const char* program;
  const char* machine;
  std::vector<std::pair<const char*, double>> hot;
};

struct PinnedTrap {
  const char* name;
  const char* trap;
  bool hung;
  std::uint64_t instructions;
  double cycles;
};

// clang-format off
const std::vector<PinnedRun>& pinned_runs() {
  static const std::vector<PinnedRun> runs = {
    {"telecom_gsm", "O0", "a57", -6592809099994538466LL, 64921u, 0x1.34c98p+17,
     {{"long_term", 0x1.2fe8p+16}, {"short_term", 0x1.507ap+15}, {"add", 0x1.229cp+15}, {"driver", 0x1p+5}}},
    {"telecom_gsm", "O3", "a57", -6592809099994538466LL, 34108u, 0x1.428bp+16,
     {{"long_term", 0x1.8b32p+15}, {"short_term", 0x1.3298p+14}, {"add", 0x1.818p+13}, {"driver", 0x1.cp+4}}},
    {"telecom_gsm", "O0", "zen", -6592809099994538466LL, 64921u, 0x1.d911p+16,
     {{"long_term", 0x1.d8dp+15}, {"short_term", 0x1.f908p+14}, {"add", 0x1.b938p+14}, {"driver", 0x1.9p+4}}},
    {"telecom_gsm", "O3", "zen", -6592809099994538466LL, 34108u, 0x1.fd38p+15,
     {{"long_term", 0x1.3b3ap+15}, {"short_term", 0x1.d588p+13}, {"add", 0x1.31cp+13}, {"driver", 0x1.6p+4}}},
    {"security_sha", "O0", "a57", 40415452856993297LL, 123447u, 0x1.2c458p+17,
     {{"sha", 0x1.c028p+16}, {"pad", 0x1.309ap+15}, {"driver", 0x1.6p+4}}},
    {"security_sha", "O3", "a57", 40415452856993297LL, 57379u, 0x1.0df499999999ap+16,
     {{"sha", 0x1.d832p+15}, {"pad", 0x1.0e4cccccccccdp+13}, {"driver", 0x1.2p+4}}},
    {"security_sha", "O0", "zen", 40415452856993297LL, 123447u, 0x1.f21p+16,
     {{"sha", 0x1.7c28p+16}, {"pad", 0x1.d75cp+14}, {"driver", 0x1.1p+4}}},
    {"security_sha", "O3", "zen", 40415452856993297LL, 57379u, 0x1.faff333333333p+15,
     {{"sha", 0x1.c03ap+15}, {"pad", 0x1.d54999999999ap+12}, {"driver", 0x1.cp+3}}},
    {"automotive_susan", "O0", "a57", 40503375278366462LL, 61131u, 0x1.16058p+17,
     {{"edges", 0x1.6b86p+16}, {"corners", 0x1.80dep+15}, {"driver", 0x1.6p+4}}},
    {"automotive_susan", "O3", "a57", 40503375278366462LL, 32471u, 0x1.3a5ecp+16,
     {{"edges", 0x1.6796p+15}, {"corners", 0x1.0d038p+15}, {"driver", 0x1.2p+4}}},
    {"automotive_susan", "O0", "zen", 40503375278366462LL, 61131u, 0x1.c32ap+16,
     {{"edges", 0x1.11b8p+16}, {"corners", 0x1.62c2p+15}, {"driver", 0x1.1p+4}}},
    {"automotive_susan", "O3", "zen", 40503375278366462LL, 32471u, 0x1.0174999998f6bp+16,
     {{"edges", 0x1.13d6p+15}, {"corners", 0x1.ddee666666d6ap+14}, {"driver", 0x1.cp+3}}},
    {"consumer_jpeg", "O0", "a57", -5677841729974216974LL, 57739u, 0x1.463p+17,
     {{"dct", 0x1.adf6p+16}, {"quant", 0x1.304ep+15}, {"huff", 0x1.18ap+14}, {"driver", 0x1.bp+4}}},
    {"consumer_jpeg", "O3", "a57", -5677841729974216974LL, 18969u, 0x1.1e1b4p+17,
     {{"dct", 0x1.e5ee8p+16}, {"quant", 0x1.146p+14}, {"huff", 0x1.119p+12}, {"driver", 0x1.7p+4}}},
    {"consumer_jpeg", "O0", "zen", -5677841729974216974LL, 57739u, 0x1.fc15p+16,
     {{"dct", 0x1.53b1p+16}, {"quant", 0x1.cc9cp+14}, {"huff", 0x1.a94p+13}, {"driver", 0x1.5p+4}}},
    {"consumer_jpeg", "O3", "zen", -5677841729974216974LL, 18969u, 0x1.b38c000000388p+16,
     {{"dct", 0x1.6f41000000388p+16}, {"quant", 0x1.b0ep+13}, {"huff", 0x1.c3ap+11}, {"driver", 0x1.2p+4}}},
    {"bzip2", "O0", "a57", -5685458722174106449LL, 62555u, 0x1.11948p+17,
     {{"blocksort", 0x1.fd32p+15}, {"huffman", 0x1.2475p+16}, {"driver", 0x1.bp+4}}},
    {"bzip2", "O3", "a57", -5685458722174106449LL, 23228u, 0x1.4b91333333333p+15,
     {{"blocksort", 0x1.873cp+14}, {"huffman", 0x1.0f8a666666666p+14}, {"driver", 0x1.7p+4}}},
    {"bzip2", "O0", "zen", -5685458722174106449LL, 62555u, 0x1.b194p+16,
     {{"blocksort", 0x1.a3p+15}, {"huffman", 0x1.bffep+15}, {"driver", 0x1.5p+4}}},
    {"bzip2", "O3", "zen", -5685458722174106449LL, 23228u, 0x1.33c7333333333p+15,
     {{"blocksort", 0x1.818p+14}, {"huffman", 0x1.cb8cccccccccdp+13}, {"driver", 0x1.2p+4}}},
    {"office_stringsearch", "O0", "a57", 40503242247362214LL, 50138u, 0x1.b2a7p+16,
     {{"search", 0x1.2e56p+16}, {"prep", 0x1.0876p+15}, {"driver", 0x1.6p+4}}},
    {"office_stringsearch", "O3", "a57", 40503242247362214LL, 18599u, 0x1.fd5e666666666p+14,
     {{"search", 0x1.aa14p+14}, {"prep", 0x1.4c0999999999ap+12}, {"driver", 0x1.2p+4}}},
    {"office_stringsearch", "O0", "zen", 40503242247362214LL, 50138u, 0x1.56a5p+16,
     {{"search", 0x1.e2a8p+15}, {"prep", 0x1.95p+14}, {"driver", 0x1.1p+4}}},
    {"office_stringsearch", "O3", "zen", 40503242247362214LL, 18599u, 0x1.d6a2666666666p+14,
     {{"search", 0x1.8f58p+14}, {"prep", 0x1.1c4999999999ap+12}, {"driver", 0x1.cp+3}}},
    {"telecom_adpcm", "O0", "a57", -40503240947358314LL, 27316u, 0x1.667ap+16,
     {{"codec", 0x1.7c4ep+15}, {"predict", 0x1.507ap+15}, {"driver", 0x1.6p+4}}},
    {"telecom_adpcm", "O3", "a57", -40503240947358314LL, 13279u, 0x1.462p+15,
     {{"codec", 0x1.596p+14}, {"predict", 0x1.3298p+14}, {"driver", 0x1.2p+4}}},
    {"telecom_adpcm", "O0", "zen", -40503240947358314LL, 27316u, 0x1.0e3ap+16,
     {{"codec", 0x1.1fcep+15}, {"predict", 0x1.f908p+14}, {"driver", 0x1.1p+4}}},
    {"telecom_adpcm", "O3", "zen", -40503240947358314LL, 13279u, 0x1.f96cp+14,
     {{"codec", 0x1.0e7p+14}, {"predict", 0x1.d588p+13}, {"driver", 0x1.cp+3}}},
    {"network_dijkstra", "O0", "a57", 1515829239110148311LL, 85246u, 0x1.05eb8p+17,
     {{"relax", 0x1.84d8p+15}, {"pqueue", 0x1.495p+16}, {"driver", 0x1.bp+4}}},
    {"network_dijkstra", "O3", "a57", 1515829239110148311LL, 42599u, 0x1.182e4p+16,
     {{"relax", 0x1.10ca8p+15}, {"pqueue", 0x1.1f64p+15}, {"driver", 0x1.7p+4}}},
    {"network_dijkstra", "O0", "zen", 1515829239110148311LL, 85246u, 0x1.c278p+16,
     {{"relax", 0x1.6926p+15}, {"pqueue", 0x1.0ddp+16}, {"driver", 0x1.5p+4}}},
    {"network_dijkstra", "O3", "zen", 1515829239110148311LL, 42599u, 0x1.ffe5999999d28p+15,
     {{"relax", 0x1.ea9b333333a4ep+14}, {"pqueue", 0x1.0a74p+15}, {"driver", 0x1.2p+4}}},
    {"consumer_mad", "O0", "a57", -5689238795081233728LL, 74256u, 0x1.5dfdp+17,
     {{"synth", 0x1.603cp+16}, {"layer3", 0x1.6cdp+15}, {"bitstream", 0x1.4a76p+15}, {"driver", 0x1.bp+4}}},
    {"consumer_mad", "O3", "a57", -5689238795081233728LL, 33653u, 0x1.39bcp+16,
     {{"synth", 0x1.524ap+15}, {"layer3", 0x1.da64p+14}, {"bitstream", 0x1.9e7p+12}, {"driver", 0x1.7p+4}}},
    {"consumer_mad", "O0", "zen", -5689238795081233728LL, 74256u, 0x1.095fp+17,
     {{"synth", 0x1.0641p+16}, {"layer3", 0x1.1bdp+15}, {"bitstream", 0x1.fap+14}, {"driver", 0x1.5p+4}}},
    {"consumer_mad", "O3", "zen", -5689238795081233728LL, 33653u, 0x1.e814p+15,
     {{"synth", 0x1.fccp+14}, {"layer3", 0x1.7a74p+14}, {"bitstream", 0x1.62bp+12}, {"driver", 0x1.2p+4}}},
    {"spec_lbm", "O0", "a57", 40503241991361683LL, 111603u, 0x1.0df6p+18,
     {{"stream", 0x1.6bc3p+17}, {"collide", 0x1.603cp+16}, {"driver", 0x1.6p+4}}},
    {"spec_lbm", "O3", "a57", 40503241991361683LL, 55550u, 0x1.0881p+17,
     {{"stream", 0x1.67cbp+16}, {"collide", 0x1.524ap+15}, {"driver", 0x1.2p+4}}},
    {"spec_lbm", "O0", "zen", 40503241991361683LL, 111603u, 0x1.9505p+17,
     {{"stream", 0x1.11dcp+17}, {"collide", 0x1.0641p+16}, {"driver", 0x1.1p+4}}},
    {"spec_lbm", "O3", "zen", 40503241991361683LL, 55550u, 0x1.9329p+16,
     {{"stream", 0x1.13ebp+16}, {"collide", 0x1.fccp+14}, {"driver", 0x1.cp+3}}},
    {"spec_deepsjeng", "O0", "a57", -6252527558068779840LL, 87811u, 0x1.161dp+17,
     {{"eval", 0x1.4bf7p+16}, {"tt", 0x1.c05p+15}, {"driver", 0x1.bp+4}}},
    {"spec_deepsjeng", "O3", "a57", -6252527558068779840LL, 42477u, 0x1.1915cp+16,
     {{"eval", 0x1.45cb8p+15}, {"tt", 0x1.d864p+14}, {"driver", 0x1.7p+4}}},
    {"spec_deepsjeng", "O0", "zen", -6252527558068779840LL, 87811u, 0x1.daf1p+16,
     {{"eval", 0x1.1cb4p+16}, {"tt", 0x1.7c5p+15}, {"driver", 0x1.5p+4}}},
    {"spec_deepsjeng", "O3", "zen", -6252527558068779840LL, 42477u, 0x1.ffda00000037dp+15,
     {{"eval", 0x1.1f7c00000037dp+15}, {"tt", 0x1.c074p+14}, {"driver", 0x1.2p+4}}},
    {"spec_imagick", "O0", "a57", 40503243328368133LL, 57682u, 0x1.28278p+17,
     {{"filter", 0x1.503dp+16}, {"transform", 0x1.fff8p+15}, {"driver", 0x1.6p+4}}},
    {"spec_imagick", "O3", "a57", 40503243328368133LL, 22988u, 0x1.8fe9p+16,
     {{"filter", 0x1.324cp+15}, {"transform", 0x1.ed62p+15}, {"driver", 0x1.2p+4}}},
    {"spec_imagick", "O0", "zen", 40503243328368133LL, 57682u, 0x1.c7dp+16,
     {{"filter", 0x1.f884p+15}, {"transform", 0x1.96fap+15}, {"driver", 0x1.1p+4}}},
    {"spec_imagick", "O3", "zen", 40503243328368133LL, 22988u, 0x1.2e1f9999998d3p+16,
     {{"filter", 0x1.d4c4p+14}, {"transform", 0x1.71c133333369dp+15}, {"driver", 0x1.cp+3}}},
    {"spec_x264", "O0", "a57", -40503435278811372LL, 58672u, 0x1.fb79p+16,
     {{"sad", 0x1.e65p+15}, {"mc", 0x1.083bp+16}, {"driver", 0x1.6p+4}}},
    {"spec_x264", "O3", "a57", -40503435278811372LL, 23586u, 0x1.8f0a666666666p+15,
     {{"sad", 0x1.3c32p+15}, {"mc", 0x1.4ad199999999ap+13}, {"driver", 0x1.2p+4}}},
    {"spec_x264", "O0", "zen", -40503435278811372LL, 58672u, 0x1.8779p+16,
     {{"sad", 0x1.7a5p+15}, {"mc", 0x1.948p+15}, {"driver", 0x1.1p+4}}},
    {"spec_x264", "O3", "zen", -40503435278811372LL, 23586u, 0x1.4312666666666p+15,
     {{"sad", 0x1.f874p+14}, {"mc", 0x1.1af199999999ap+13}, {"driver", 0x1.cp+3}}},
    {"spec_nab", "O0", "a57", 40503245428371873LL, 36142u, 0x1.7275p+16,
     {{"energy", 0x1.603cp+16}, {"bonds", 0x1.223p+12}, {"driver", 0x1.6p+4}}},
    {"spec_nab", "O3", "a57", 40503245428371873LL, 18211u, 0x1.64b8p+15,
     {{"energy", 0x1.524ap+15}, {"bonds", 0x1.24ap+11}, {"driver", 0x1.2p+4}}},
    {"spec_nab", "O0", "zen", 40503245428371873LL, 36142u, 0x1.1516p+16,
     {{"energy", 0x1.0641p+16}, {"bonds", 0x1.d88p+11}, {"driver", 0x1.1p+4}}},
    {"spec_nab", "O3", "zen", 40503245428371873LL, 18211u, 0x1.0e88p+15,
     {{"energy", 0x1.fccp+14}, {"bonds", 0x1.00cp+11}, {"driver", 0x1.cp+3}}},
    {"spec_xz", "O0", "a57", -2719890221289626514LL, 85456u, 0x1.03848p+17,
     {{"check", 0x1.c05p+15}, {"lz", 0x1.26c6p+16}, {"driver", 0x1.bp+4}}},
    {"spec_xz", "O3", "a57", -2719890221289626514LL, 37512u, 0x1.8f4b333333333p+15,
     {{"check", 0x1.d864p+14}, {"lz", 0x1.45d6666666666p+14}, {"driver", 0x1.7p+4}}},
    {"spec_xz", "O0", "zen", -2719890221289626514LL, 85456u, 0x1.a7fp+16,
     {{"check", 0x1.7c5p+15}, {"lz", 0x1.d366p+15}, {"driver", 0x1.5p+4}}},
    {"spec_xz", "O3", "zen", -2719890221289626514LL, 37512u, 0x1.79c5333333333p+15,
     {{"check", 0x1.c074p+14}, {"lz", 0x1.32ce666666666p+14}, {"driver", 0x1.2p+4}}},
  };
  return runs;
}

const std::vector<PinnedHot>& pinned_hot() {
  static const std::vector<PinnedHot> hot = {
    {"telecom_gsm", "a57", {{"long_term", 0x1.39a9e3fa9af98p-1}, {"short_term", 0x1.e6aeb4956cd04p-3}, {"add", 0x1.31f7f1fc824d5p-3}, {"driver", 0x1.63930749f8b6dp-12}}},
    {"telecom_gsm", "zen", {{"long_term", 0x1.3cf2c195337b9p-1}, {"short_term", 0x1.d8188214e50e9p-3}, {"add", 0x1.336b8180161ecp-3}, {"driver", 0x1.61ec2c6dc8ab1p-12}}},
    {"security_sha", "a57", {{"sha", 0x1.bfc8f36f8a65fp-1}, {"pad", 0x1.0053a3f54980dp-3}, {"driver", 0x1.111c9919ce756p-12}}},
    {"security_sha", "zen", {{"sha", 0x1.c4a654e38e0afp-1}, {"pad", 0x1.d9eb230260bfbp-4}, {"driver", 0x1.c46bc25dd1e58p-13}}},
    {"automotive_susan", "a57", {{"edges", 0x1.24d2092e8de03p-1}, {"corners", 0x1.b6214bf724199p-2}, {"driver", 0x1.d50d5e013026bp-13}}},
    {"automotive_susan", "zen", {{"edges", 0x1.1246cc8de095bp-1}, {"corners", 0x1.db3ab7efe2e36p-2}, {"driver", 0x1.bd77a2df8ad9cp-13}}},
    {"consumer_jpeg", "a57", {{"dct", 0x1.b2cc4763b72bap-1}, {"quant", 0x1.ee95cc9490475p-4}, {"huff", 0x1.e98d53e083001p-6}, {"driver", 0x1.4946ab2b372eep-13}}},
    {"consumer_jpeg", "zen", {{"dct", 0x1.afb8253fedd1ep-1}, {"quant", 0x1.fcdbef5bdd77dp-4}, {"huff", 0x1.09733f8b08ac4p-5}, {"driver", 0x1.528dbe5f45ccep-13}}},
    {"bzip2", "a57", {{"blocksort", 0x1.2e1188a0a4a6p-1}, {"huffman", 0x1.a34ede2d27be9p-2}, {"driver", 0x1.1c21231dead53p-11}}},
    {"bzip2", "zen", {{"blocksort", 0x1.40a58596f943fp-1}, {"huffman", 0x1.7e3d2e8640a79p-2}, {"driver", 0x1.df192f3342a34p-12}}},
    {"office_stringsearch", "a57", {{"search", 0x1.ac4774685948bp-1}, {"prep", 0x1.4dc0b18323bb1p-3}, {"driver", 0x1.217cdb772256p-11}}},
    {"office_stringsearch", "zen", {{"search", 0x1.b27182efbbfacp-1}, {"prep", 0x1.3546441945eb6p-3}, {"driver", 0x1.e7604f945364ep-12}}},
    {"telecom_adpcm", "a57", {{"codec", 0x1.0f1c5b7318d33p-1}, {"predict", 0x1.e1563fc77b56dp-2}, {"driver", 0x1.c425494c0b61dp-12}}},
    {"telecom_adpcm", "zen", {{"codec", 0x1.11f51006b612ep-1}, {"predict", 0x1.dba46ac7332e5p-2}, {"driver", 0x1.c5d4ad82afd65p-12}}},
    {"network_dijkstra", "a57", {{"pqueue", 0x1.06967467be681p-1}, {"relax", 0x1.f27f07d139191p-2}, {"driver", 0x1.503d7d285aef2p-12}}},
    {"network_dijkstra", "zen", {{"pqueue", 0x1.0a81bde3ca6e1p-1}, {"relax", 0x1.eab48081d3b9bp-2}, {"driver", 0x1.200eda5da8b45p-12}}},
    {"consumer_mad", "a57", {{"synth", 0x1.14093b11af0a3p-1}, {"layer3", 0x1.83177f61b352ep-2}, {"bitstream", 0x1.522be25eadc71p-4}, {"driver", 0x1.2c478d0c9c013p-12}}},
    {"consumer_mad", "zen", {{"synth", 0x1.0ad7afd0ecf21p-1}, {"layer3", 0x1.8d00842cf1916p-2}, {"bitstream", 0x1.7412532ef3958p-4}, {"driver", 0x1.2e1d95de94414p-12}}},
    {"spec_lbm", "a57", {{"stream", 0x1.5c39b920b0feep-1}, {"collide", 0x1.4769b60aed15ep-2}, {"driver", 0x1.16bd9d8763a98p-13}}},
    {"spec_lbm", "zen", {{"stream", 0x1.5e681a40aa045p-1}, {"collide", 0x1.430c3c5f7edc4p-2}, {"driver", 0x1.1c78f968d961fp-13}}},
    {"spec_deepsjeng", "a57", {{"eval", 0x1.28b84b043704ep-1}, {"tt", 0x1.ae3b9fd383e61p-2}, {"driver", 0x1.4f28903840e26p-12}}},
    {"spec_deepsjeng", "zen", {{"eval", 0x1.1f9157c9840d4p-1}, {"tt", 0x1.c0954b149255fp-2}, {"driver", 0x1.201561963e073p-12}}},
    {"spec_imagick", "a57", {{"transform", 0x1.3bd6002520daep-1}, {"filter", 0x1.8825e89469d05p-2}, {"driver", 0x1.70b90aa3cfd1bp-13}}},
    {"spec_imagick", "zen", {{"transform", 0x1.394e6ecec4cc4p-1}, {"filter", 0x1.8d33aefa933fp-2}, {"driver", 0x1.7b9b3f19451bp-13}}},
    {"spec_x264", "a57", {{"sad", 0x1.95b3fb4f0a216p-1}, {"mc", 0x1.a8774f668309ep-3}, {"driver", 0x1.7186baa8e18c9p-12}}},
    {"spec_x264", "zen", {{"sad", 0x1.8fb9acd2ce6c7p-1}, {"mc", 0x1.c067cdb3ecdfbp-3}, {"driver", 0x1.62fe01b2dd8efp-12}}},
    {"spec_nab", "a57", {{"energy", 0x1.e58c3bd5919dcp-1}, {"bonds", 0x1.a40186671e1e7p-5}, {"driver", 0x1.9d5e1fe402f5dp-12}}},
    {"spec_nab", "zen", {{"energy", 0x1.e16c51f8d7fd6p-1}, {"bonds", 0x1.e5eb011819c95p-5}, {"driver", 0x1.a7efad33302cp-12}}},
    {"spec_xz", "a57", {{"check", 0x1.2edd5ff727025p-1}, {"lz", 0x1.a1cf482ffd1d6p-2}, {"driver", 0x1.d7df86d37829p-12}}},
    {"spec_xz", "zen", {{"check", 0x1.2fe6215c25e7p-1}, {"lz", 0x1.9fd2280158cb2p-2}, {"driver", 0x1.8655196d9b357p-12}}},
  };
  return hot;
}

const std::vector<PinnedTrap>& pinned_traps() {
  static const std::vector<PinnedTrap> traps = {
    {"division_by_zero", "division by zero", false, 5u, 0x1p+5},
    {"out_of_bounds_load", "memory access out of bounds", false, 4u, 0x1p+4},
    {"budget_exhausted", "instruction budget exhausted (non-terminating?)", true, 5001u, 0x1.925p+12},
    {"call_depth_exceeded", "call depth exceeded", false, 770u, 0x1.614p+11},
    {"unknown_symbol", "unknown symbol missing", false, 4u, 0x1.6p+3},
  };
  return traps;
}
// clang-format on

ir::CostModel machine_named(const std::string& name) {
  return name == "a57" ? sim::arm_a57_model() : sim::amd_zen_model();
}

/// One function `main` returning i64, in a module named "m" that holds a
/// 256-byte global whose bytes are 0, 7, 14, ... (mod 256). Every memory
/// test program shares this layout, so their stacks start at the same
/// address (4096 + 256) and overlap from run to run.
struct OneFn {
  Program p;
  OneFn() {
    Module m;
    m.name = "m";
    GlobalVar g{"buf", std::vector<std::uint8_t>(256)};
    for (std::size_t i = 0; i < g.init.size(); ++i)
      g.init[i] = static_cast<std::uint8_t>(i * 7);
    m.globals.push_back(std::move(g));
    create_function(m, "main", kI64, {}, false);
    p.name = "t";
    p.modules.push_back(std::move(m));
    p.entry = "main";
  }
  Module& module() { return p.modules[0]; }
  Function& fn(std::size_t i = 0) { return p.modules[0].functions[i]; }
};

constexpr std::int64_t kStackBase = 4096 + 256;

/// Stores all over its stack (a 512-byte frame and a 128 KiB buffer) and
/// into the global, then reads some of it back.
Program scribbler() {
  OneFn t;
  IRBuilder b(t.fn());
  b.set_insert(0);
  const ValueId small = b.stack_alloc(kI64, 64);
  const ValueId big = b.stack_alloc(kI64, 16384);
  b.memset(small, b.const_i64(0x5a), b.const_i64(512));
  b.memset(big, b.const_i64(0xff), b.const_i64(16384 * 8));
  b.store(b.const_i64(0x1234), b.gep(small, b.const_i64(3), kI64));
  const ValueId gslot = b.gep(b.global_addr(0), b.const_i64(5), kI64);
  b.store(b.const_i64(0xdeadbeef), gslot);
  const ValueId sum = b.binop(
      Opcode::Add,
      b.binop(Opcode::Add, b.load(kI64, b.gep(small, b.const_i64(3), kI64)),
              b.load(kI64, gslot)),
      b.load(kI64, b.gep(big, b.const_i64(100), kI64)));
  b.ret(sum);
  return t.p;
}

/// Stores to its stack and the global, then divides by zero.
Program trapper() {
  OneFn t;
  IRBuilder b(t.fn());
  b.set_insert(0);
  const ValueId frame = b.stack_alloc(kI64, 512);
  b.memset(frame, b.const_i64(0x77), b.const_i64(4096));
  b.store(b.const_i64(-1), b.gep(b.global_addr(0), b.const_i64(1), kI64));
  b.ret(b.binop(Opcode::SDiv, b.const_i64(1), b.const_i64(0)));
  return t.p;
}

/// Loads stack slots it never wrote (they overlap what the two programs
/// above wrote) and one global slot (`scribbler` overwrote it in its own
/// image only). Returns their sum: 0 plus the global's initial bytes.
Program reader() {
  OneFn t;
  IRBuilder b(t.fn());
  b.set_insert(0);
  const ValueId small = b.stack_alloc(kI64, 64);
  const ValueId big = b.stack_alloc(kI64, 16384);
  ValueId sum = b.load(kI64, b.gep(b.global_addr(0), b.const_i64(5), kI64));
  for (const std::int64_t i : {0, 3, 63})
    sum = b.binop(Opcode::Add, sum,
                  b.load(kI64, b.gep(small, b.const_i64(i), kI64)));
  for (const std::int64_t i : {0, 100, 16383})
    sum = b.binop(Opcode::Add, sum,
                  b.load(kI64, b.gep(big, b.const_i64(i), kI64)));
  b.ret(sum);
  return t.p;
}

/// Loads 2 KiB above the stack base through a constant address.
Program prober() {
  OneFn t;
  IRBuilder b(t.fn());
  b.set_insert(0);
  b.ret(b.load(kI64, b.const_i64(kStackBase + 2048)));
  return t.p;
}

/// The five trap kinds, each after a little work so that the cycles and
/// instructions charged before the trap are pinned too.
std::vector<std::pair<std::string, std::pair<Program, ExecLimits>>>
trap_cases() {
  std::vector<std::pair<std::string, std::pair<Program, ExecLimits>>> out;
  {
    OneFn t;
    IRBuilder b(t.fn());
    b.set_insert(0);
    const ValueId x = b.binop(Opcode::Mul, b.const_i64(6), b.const_i64(7));
    b.ret(b.binop(Opcode::SDiv, x, b.binop(Opcode::Sub, x, x)));
    out.push_back({"division_by_zero", {t.p, ExecLimits{}}});
  }
  {
    OneFn t;
    IRBuilder b(t.fn());
    b.set_insert(0);
    const ValueId base = b.global_addr(0);
    b.ret(b.load(kI64, b.gep(base, b.const_i64(-600), kI64)));
    out.push_back({"out_of_bounds_load", {t.p, ExecLimits{}}});
  }
  {
    OneFn t;
    IRBuilder b(t.fn());
    b.set_insert(0);
    const ValueId slot = b.stack_alloc(kI64);
    b.store(b.const_i64(0), slot);
    const BlockId spin = b.new_block("spin");
    b.br(spin);
    b.set_insert(spin);
    const ValueId v = b.load(kI64, slot);
    b.store(b.binop(Opcode::Add, v, b.const_i64(1)), slot);
    b.cond_br(b.icmp(CmpPred::SGE, v, b.const_i64(0)), spin, spin);
    ExecLimits lim;
    lim.max_instructions = 5000;
    out.push_back({"budget_exhausted", {t.p, lim}});
  }
  {
    OneFn t;
    create_function(t.module(), "down", kI64, {kI64}, true);
    {
      IRBuilder b(t.fn(1));
      b.set_insert(0);
      b.ret(b.call(kI64, "down",
                   {b.binop(Opcode::Add, b.arg(0), b.const_i64(1))}));
    }
    IRBuilder b(t.fn());
    b.set_insert(0);
    b.ret(b.call(kI64, "down", {b.const_i64(0)}));
    out.push_back({"call_depth_exceeded", {t.p, ExecLimits{}}});
  }
  {
    OneFn t;
    IRBuilder b(t.fn());
    b.set_insert(0);
    const ValueId x = b.binop(Opcode::Add, b.const_i64(1), b.const_i64(2));
    b.ret(b.call(kI64, "missing", {x}));
    out.push_back({"unknown_symbol", {t.p, ExecLimits{}}});
  }
  return out;
}

/// Runs `p` on a thread of its own, whose memory image is brand new.
ExecResult run_on_fresh_thread(const Program& p, const ExecLimits& lim = {}) {
  ExecResult r;
  std::thread t([&] { r = interpret(p, {}, lim); });
  t.join();
  return r;
}

/// Everything a caller can observe of a run; empty when `a` equals `b`.
std::string diff(const ExecResult& a, const ExecResult& b) {
  std::string d;
  if (a.ok != b.ok) d += " ok";
  if (a.trap != b.trap) d += " trap(" + a.trap + " vs " + b.trap + ")";
  if (a.hung != b.hung) d += " hung";
  if (a.ret != b.ret)
    d += " ret(" + std::to_string(a.ret) + " vs " + std::to_string(b.ret) + ")";
  if (a.instructions != b.instructions) d += " instructions";
  if (a.cycles != b.cycles) d += " cycles(" + hex(a.cycles) + " vs " + hex(b.cycles) + ")";
  if (a.module_cycles != b.module_cycles) d += " module_cycles";
  return d;
}

}  // namespace

class SuiteRunPin : public ::testing::TestWithParam<std::string> {};

TEST_P(SuiteRunPin, MatchesRecordedBitForBit) {
  const std::string& name = GetParam();
  int checked = 0;
  for (const PinnedRun& want : pinned_runs()) {
    if (name != want.program) continue;
    const CostModel machine = machine_named(want.machine);
    ExecResult got;
    if (std::string(want.build) == "O0") {
      got = interpret(bench_suite::make_program(name), machine);
    } else {
      sim::ProgramEvaluator ev(bench_suite::make_program(name), machine);
      const auto built = ev.compile({}, /*keep_program=*/true);
      ASSERT_TRUE(built.valid) << built.why_invalid;
      got = interpret(*built.program, machine);
    }
    const std::string where =
        name + " " + want.build + " " + want.machine;
    ASSERT_TRUE(got.ok) << where << ": " << got.trap;
    EXPECT_EQ(got.ret, want.ret) << where;
    EXPECT_EQ(got.instructions, want.instructions) << where;
    EXPECT_EQ(got.cycles, want.cycles)
        << where << ": " << hex(got.cycles) << " vs " << hex(want.cycles);
    EXPECT_EQ(got.module_cycles.size(), want.module_cycles.size()) << where;
    for (const auto& [module, cycles] : want.module_cycles) {
      const auto it = got.module_cycles.find(module);
      ASSERT_NE(it, got.module_cycles.end()) << where << " " << module;
      EXPECT_EQ(it->second, cycles) << where << " " << module << ": "
                                    << hex(it->second) << " vs " << hex(cycles);
    }
    ++checked;
  }
  EXPECT_EQ(checked, 4) << "expected -O0 and -O3 under both machines";
}

TEST_P(SuiteRunPin, HotModulesMatchRecordedBitForBit) {
  const std::string& name = GetParam();
  int checked = 0;
  for (const PinnedHot& want : pinned_hot()) {
    if (name != want.program) continue;
    sim::ProgramEvaluator ev(bench_suite::make_program(name),
                             machine_named(want.machine));
    const auto got = ev.hot_modules();
    ASSERT_EQ(got.size(), want.hot.size()) << name;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].first, want.hot[i].first) << name << " rank " << i;
      EXPECT_EQ(got[i].second, want.hot[i].second)
          << name << " rank " << i << ": " << hex(got[i].second) << " vs "
          << hex(want.hot[i].second);
    }
    ++checked;
  }
  EXPECT_EQ(checked, 2) << "expected both machines";
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, SuiteRunPin,
                         ::testing::ValuesIn([] {
                           std::vector<std::string> names;
                           for (const auto& b : bench_suite::benchmark_list())
                             names.push_back(b.name);
                           return names;
                         }()),
                         [](const auto& info) { return info.param; });

TEST(InterpreterPin, TrapsMatchRecorded) {
  const auto cases = trap_cases();
  ASSERT_EQ(cases.size(), pinned_traps().size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const PinnedTrap& want = pinned_traps()[i];
    ASSERT_EQ(cases[i].first, want.name);
    const auto& [prog, lim] = cases[i].second;
    const ExecResult got = interpret(prog, {}, lim);
    EXPECT_FALSE(got.ok) << want.name;
    EXPECT_EQ(got.trap, want.trap) << want.name;
    EXPECT_EQ(got.hung, want.hung) << want.name;
    EXPECT_EQ(got.ret, 0) << want.name;
    EXPECT_EQ(got.instructions, want.instructions) << want.name;
    EXPECT_EQ(got.cycles, want.cycles)
        << want.name << ": " << hex(got.cycles) << " vs " << hex(want.cycles);
  }
}

TEST(InterpreterMemory, ReusedImageMatchesFreshThread) {
  const Program progs[] = {scribbler(), trapper(), reader()};
  std::vector<ExecResult> fresh;
  for (const Program& p : progs) fresh.push_back(run_on_fresh_thread(p));
  ASSERT_TRUE(fresh[0].ok) << fresh[0].trap;
  EXPECT_EQ(fresh[1].trap, "division by zero");
  ASSERT_TRUE(fresh[2].ok) << fresh[2].trap;
  // The global's initial bytes 40..47 are 7 * i mod 256, little-endian;
  // every never-written stack slot reads 0.
  std::uint64_t init = 0;
  for (int i = 7; i >= 0; --i)
    init = (init << 8) | static_cast<std::uint8_t>((40 + i) * 7);
  EXPECT_EQ(static_cast<std::uint64_t>(fresh[2].ret), init);

  // The same thread, twice through the sequence, so each program also
  // follows the one that wrote the most.
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < 3; ++i) {
      const ExecResult got = interpret(progs[i]);
      EXPECT_EQ(diff(got, fresh[i]), "") << "round " << round << " program " << i;
    }
  }
}

TEST(InterpreterMemory, SmallLimitAfterLargeRunTrapsAsRecorded) {
  // Recorded before the memory image was reused. The small limit ends the
  // image 1 KiB above the stack base: `reader`'s second allocation
  // overflows the stack, and `prober`'s load lies beyond the image, even
  // though the previous run left those bytes mapped and written.
  ExecLimits small;
  small.max_memory_bytes = static_cast<std::uint64_t>(kStackBase) + 1024;
  const PinnedTrap want[] = {
    {"reader", "stack overflow", false, 2u, 0x1.4p+3},
    {"prober", "memory access out of bounds", false, 2u, 0x1.cp+3},
  };
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(interpret(scribbler()).ok);
    const ExecResult got[] = {interpret(reader(), {}, small),
                              interpret(prober(), {}, small)};
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_FALSE(got[i].ok) << want[i].name;
      EXPECT_EQ(got[i].trap, want[i].trap) << want[i].name;
      EXPECT_EQ(got[i].hung, want[i].hung) << want[i].name;
      EXPECT_EQ(got[i].instructions, want[i].instructions) << want[i].name;
      EXPECT_EQ(got[i].cycles, want[i].cycles) << want[i].name;
    }
  }
  // And the default limit afterwards sees a zeroed image again.
  const ExecResult after = interpret(prober());
  ASSERT_TRUE(after.ok) << after.trap;
  EXPECT_EQ(after.ret, 0);
}

TEST(InterpreterMemory, ConcurrentReuseMatchesFreshThread) {
  const Program progs[] = {scribbler(), trapper(), reader(), prober()};
  std::vector<ExecResult> fresh;
  for (const Program& p : progs) fresh.push_back(run_on_fresh_thread(p));

  ThreadPool pool(4);
  constexpr std::size_t kJobs = 32;
  std::vector<std::string> diffs(kJobs);
  pool.parallel_for(kJobs, [&](std::size_t j) {
    for (std::size_t k = 0; k < 4; ++k) {
      const std::size_t i = (j + k) % 4;  // every order of neighbours
      const std::string d = diff(interpret(progs[i]), fresh[i]);
      if (!d.empty()) diffs[j] += " [program " + std::to_string(i) + ":" + d + "]";
    }
  });
  for (std::size_t j = 0; j < kJobs; ++j) EXPECT_EQ(diffs[j], "") << "job " << j;
}
