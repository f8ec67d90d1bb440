#include "gen/corpus_io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "miri/finding.hpp"
#include "support/line_reader.hpp"

namespace rustbrain::gen {

namespace {

const char* kMagic = "rustbrain-corpus";

bool category_from_label(const std::string& label, miri::UbCategory& out) {
    for (miri::UbCategory category : miri::all_ub_categories()) {
        if (label == miri::ub_category_label(category)) {
            out = category;
            return true;
        }
    }
    // CompileError is not part of all_ub_categories' figure order but is a
    // legal case category nonetheless.
    if (label == miri::ub_category_label(miri::UbCategory::CompileError)) {
        out = miri::UbCategory::CompileError;
        return true;
    }
    return false;
}

bool strategy_from_name(const std::string& name, dataset::FixStrategy& out) {
    using dataset::FixStrategy;
    for (FixStrategy strategy :
         {FixStrategy::SafeAlternative, FixStrategy::AssertionGuard,
          FixStrategy::SemanticModification}) {
        if (name == dataset::fix_strategy_name(strategy)) {
            out = strategy;
            return true;
        }
    }
    return false;
}

}  // namespace

std::string corpus_to_string(const dataset::Corpus& corpus) {
    std::ostringstream out;
    out << kMagic << " v" << kCorpusFormatVersion << "\n";
    out << "cases " << corpus.size() << "\n";
    for (const dataset::UbCase& c : corpus.cases()) {
        // Refuse to write what load_corpus would refuse to read — a save
        // that cannot round-trip is data loss deferred to load time.
        if (c.id.empty() || c.id.find('\n') != std::string::npos) {
            throw std::invalid_argument(
                "cannot serialize corpus: case id is empty or contains a "
                "newline: '" + c.id + "'");
        }
        if (c.difficulty < 1 || c.difficulty > 3) {
            throw std::invalid_argument(
                "cannot serialize corpus: case " + c.id +
                " has difficulty outside [1, 3]");
        }
        out << "\ncase " << c.id << "\n";
        out << "category " << miri::ub_category_label(c.category) << "\n";
        out << "strategy " << dataset::fix_strategy_name(c.intended_strategy)
            << "\n";
        out << "difficulty " << c.difficulty << "\n";
        out << "inputs " << c.inputs.size() << "\n";
        for (const std::vector<std::int64_t>& input : c.inputs) {
            out << "input " << input.size();
            for (std::int64_t value : input) out << ' ' << value;
            out << "\n";
        }
        out << "buggy " << c.buggy_source.size() << "\n"
            << c.buggy_source << "\n";
        out << "fix " << c.reference_fix.size() << "\n"
            << c.reference_fix << "\n";
        out << "end\n";
    }
    return out.str();
}

dataset::Corpus corpus_from_string(const std::string& text) {
    support::LineReader reader(text, "corpus format error");

    const std::string header = reader.read_line();
    const std::string expected_header =
        std::string(kMagic) + " v" + std::to_string(kCorpusFormatVersion);
    if (header != expected_header) {
        if (header.rfind(kMagic, 0) != 0) {
            reader.fail("not a rustbrain corpus file (bad magic '" + header +
                        "')");
        }
        reader.fail("unsupported corpus format version '" + header +
                    "' (this build reads '" + expected_header + "')");
    }
    const std::uint64_t declared_cases =
        reader.parse_u64(reader.read_field("cases"), "case count");
    // Every case occupies well over one byte, so a count beyond the input
    // size is certainly corrupt — reject it here rather than letting an
    // untrusted header size a giant reservation.
    if (declared_cases > text.size()) {
        reader.fail("declared case count " + std::to_string(declared_cases) +
                    " exceeds the input size");
    }

    std::vector<dataset::UbCase> cases;
    cases.reserve(declared_cases);
    for (std::uint64_t index = 0; index < declared_cases; ++index) {
        // Blank separator line between cases.
        if (!reader.read_line().empty()) {
            reader.fail("expected a blank line before case " +
                        std::to_string(index));
        }
        dataset::UbCase c;
        c.id = reader.read_field("case");
        if (c.id.empty()) reader.fail("case id must not be empty");

        const std::string label = reader.read_field("category");
        if (!category_from_label(label, c.category)) {
            reader.fail("unknown category '" + label + "' in case " + c.id);
        }
        const std::string strategy = reader.read_field("strategy");
        if (!strategy_from_name(strategy, c.intended_strategy)) {
            reader.fail("unknown strategy '" + strategy + "' in case " + c.id);
        }
        c.difficulty =
            reader.parse_int(reader.read_field("difficulty"), "difficulty");
        if (c.difficulty < 1 || c.difficulty > 3) {
            reader.fail("difficulty out of range in case " + c.id);
        }

        const std::uint64_t input_count =
            reader.parse_u64(reader.read_field("inputs"), "input count");
        for (std::uint64_t i = 0; i < input_count; ++i) {
            std::vector<std::int64_t> values;
            for (const std::string& word : reader.read_list("input")) {
                values.push_back(reader.parse_i64(word, "input value"));
            }
            c.inputs.push_back(std::move(values));
        }

        c.buggy_source = reader.read_block("buggy");
        c.reference_fix = reader.read_block("fix");
        if (reader.read_line() != "end") {
            reader.fail("expected 'end' after case " + c.id);
        }
        cases.push_back(std::move(c));
    }
    if (!reader.at_end()) {
        reader.fail("trailing content after the declared " +
                    std::to_string(declared_cases) + " cases");
    }
    return dataset::Corpus(std::move(cases));
}

void save_corpus(const dataset::Corpus& corpus, const std::string& path) {
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        throw std::runtime_error("cannot open corpus file for writing: " +
                                 path);
    }
    const std::string text = corpus_to_string(corpus);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    if (!out) {
        throw std::runtime_error("failed writing corpus file: " + path);
    }
}

dataset::Corpus load_corpus(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw std::runtime_error("cannot open corpus file: " + path);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad()) {
        throw std::runtime_error("failed reading corpus file: " + path);
    }
    try {
        return corpus_from_string(buffer.str());
    } catch (const std::runtime_error& error) {
        throw std::runtime_error(path + ": " + error.what());
    }
}

}  // namespace rustbrain::gen
