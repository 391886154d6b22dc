// Small shared string helpers for the textual front ends.
#pragma once

#include <string>
#include <vector>

namespace ucr {

/// Copy of `text` with ASCII whitespace removed from both ends.
std::string trim(const std::string& text);

/// Copy of `text` with ASCII letters lowercased.
std::string lowercase(const std::string& text);

/// The candidate closest to `name` in case-folded edit distance (first
/// wins on ties), for did-you-mean errors: protocol lookup
/// (core/registry.hpp find_protocol), the spec file parser's keys, engine
/// modes and output formats (exp/spec_io.hpp), arrival kinds
/// (exp/spec.hpp) and channel kinds (channel/model.hpp). Empty candidates
/// yield "".
std::string closest_name(const std::vector<std::string>& candidates,
                         const std::string& name);

/// The whole file at `path`. Throws ContractViolation "cannot open <what>
/// '<path>'" (or "cannot read ...") when it cannot be opened or read.
std::string read_text_file(const std::string& path, const std::string& what);

}  // namespace ucr
