// Small shared string helpers for the textual front ends.
#pragma once

#include <string>

namespace ucr {

/// Copy of `text` with ASCII whitespace removed from both ends.
std::string trim(const std::string& text);

/// The whole file at `path`. Throws ContractViolation "cannot open <what>
/// '<path>'" (or "cannot read ...") when it cannot be opened or read.
std::string read_text_file(const std::string& path, const std::string& what);

}  // namespace ucr
