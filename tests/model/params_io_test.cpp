#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "model/params_io.hpp"
#include "sim/config.hpp"

namespace am::model {
namespace {

// amp1 is an export format (the calibrate response embeds it), so its bytes
// are the contract: field order, 17-digit doubles, row-major matrices.
constexpr const char* kTestPresetAmp1 =
    "amp1\n"
    "machine test-uniform\n"
    "freq_ghz 1\n"
    "cores 4\n"
    "l1_hit 4\n"
    "exec_cost 1 1 10 10 10 10 10\n"
    "memory_fill 200\n"
    "shared_supply 50\n"
    "arbitration 0\n"
    "aging_limit 1500\n"
    "arbitration_bias 1\n"
    "transfer 16 0 100 100 100 100 0 100 100 100 100 0 100 100 100 100 0\n"
    "hops 16 0 1 1 1 1 0 1 1 1 1 0 1 1 1 1 0\n"
    "is_far 16 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n"
    "distance 16 0 1 1 1 1 0 1 1 1 1 0 1 1 1 1 0\n"
    "energy 4 1.5 0 1.2 2 6 0.59999999999999998 18 1\n";

TEST(ParamsIo, TestPresetBytesArePinned) {
  const ModelParams p = ModelParams::from_machine(sim::preset_by_name("test"));
  std::ostringstream out;
  save_params(p, out);
  EXPECT_EQ(out.str(), kTestPresetAmp1);

  const std::string path = ::testing::TempDir() + "am_params_io_test.amp";
  ASSERT_TRUE(save_params_file(p, path));
  std::ifstream in(path);
  std::ostringstream file;
  file << in.rdbuf();
  EXPECT_EQ(file.str(), kTestPresetAmp1);
  std::remove(path.c_str());
  EXPECT_FALSE(save_params_file(p, "/nonexistent-dir/params.amp"));
}

}  // namespace
}  // namespace am::model
