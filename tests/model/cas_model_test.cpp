#include <gtest/gtest.h>

#include "model/cas_model.hpp"

namespace am::model {
namespace {

TEST(CasDeterministic, OneOverN) {
  EXPECT_DOUBLE_EQ(cas_success_deterministic(1), 1.0);
  EXPECT_DOUBLE_EQ(cas_success_deterministic(2), 0.5);
  EXPECT_DOUBLE_EQ(cas_success_deterministic(10), 0.1);
}

}  // namespace
}  // namespace am::model
