#include "miri/mirilite.hpp"

#include "lang/parser.hpp"
#include "lang/typecheck.hpp"

namespace rustbrain::miri {

bool MiriReport::has_category(UbCategory category) const {
    for (const auto& finding : findings) {
        if (finding.category == category) return true;
    }
    return false;
}

std::string MiriReport::summary() const {
    if (findings.empty()) {
        return "pass";
    }
    std::string out;
    for (const auto& finding : findings) {
        out += finding.to_string();
        out += '\n';
    }
    return out;
}

MiriReport MiriLite::test(const lang::Program& program,
                          const std::vector<std::vector<std::int64_t>>& input_sets)
    const {
    MiriReport report;

    // The interpreter relies on type annotations; check a private clone so
    // callers' programs are never mutated behind their back.
    lang::Program checked = program.clone();
    std::string type_error;
    if (!lang::type_check(checked, &type_error)) {
        report.findings.push_back(
            Finding{UbCategory::CompileError, type_error, {}});
        return report;
    }

    return merge_runs(input_sets, [&](const std::vector<std::int64_t>& inputs) {
        return Interpreter(checked, inputs, limits_).run();
    });
}

MiriReport MiriLite::test_source(
    const std::string& source,
    const std::vector<std::vector<std::int64_t>>& input_sets) const {
    std::string parse_error;
    auto program = lang::try_parse(source, &parse_error);
    if (!program) {
        MiriReport report;
        report.findings.push_back(
            Finding{UbCategory::CompileError, parse_error, {}});
        return report;
    }
    return test(*program, input_sets);
}

}  // namespace rustbrain::miri
