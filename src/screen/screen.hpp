// Read only by perfbench/rbbench.cpp; removed by the next benchmark change.
//
// A no-op with the signature rbbench replays, so the benchmark builds
// unchanged. The Oracle never calls it: every verification interprets.
#pragma once

#include <cstdint>
#include <vector>

#include "lang/ast.hpp"
#include "miri/interp.hpp"
#include "miri/lower.hpp"

namespace rustbrain::screen {

inline void screen_program(
    const lang::Program& program, const miri::LoweredProgram& lowering,
    const std::vector<std::vector<std::int64_t>>& input_sets,
    const miri::InterpLimits& limits) {
    (void)program;
    (void)lowering;
    (void)input_sets;
    (void)limits;
}

}  // namespace rustbrain::screen
