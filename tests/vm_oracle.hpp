// Test double: an Oracle that runs every input on vm::Vm, over optimized
// or plain bytecode, through Oracle's protected interpret() seam. The
// production path only reaches the vm for runs past the slot budget; this
// double puts every verification — short runs, front-end-clean failures,
// whole engine sweeps — on the vm, so the differential tests can hold both
// bytecode forms to the tree walk byte for byte.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "miri/mirilite.hpp"
#include "verify/oracle.hpp"
#include "vm/vm.hpp"

namespace rustbrain::verify {

class VmOracle final : public Oracle {
  public:
    /// `optimized` picks CompiledProgram::optimized_bytecode() over the
    /// plain bytecode().
    VmOracle(OracleOptions options, bool optimized)
        : Oracle(std::move(options)), optimized_(optimized) {}

  protected:
    miri::MiriReport interpret(
        const CompiledProgram& compiled,
        const std::vector<std::vector<std::int64_t>>& input_sets)
        const override {
        const vm::VmProgram& code = optimized_ ? compiled.optimized_bytecode()
                                               : compiled.bytecode();
        return miri::merge_runs(
            input_sets, [&](const std::vector<std::int64_t>& inputs) {
                return vm::Vm(compiled.program, code, inputs, limits()).run();
            });
    }

  private:
    bool optimized_;
};

}  // namespace rustbrain::verify
