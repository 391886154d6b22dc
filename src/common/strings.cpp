#include "common/strings.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "common/check.hpp"

namespace ucr {

namespace {

/// Classic dynamic-programming edit distance, for the did-you-mean hint.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t substitution =
          diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      diagonal = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitution});
    }
  }
  return row[b.size()];
}

}  // namespace

std::string trim(const std::string& text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin])))
    ++begin;
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1])))
    --end;
  return text.substr(begin, end - begin);
}

std::string lowercase(const std::string& text) {
  std::string out = text;
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string closest_name(const std::vector<std::string>& candidates,
                         const std::string& name) {
  if (candidates.empty()) return {};
  const std::string folded = lowercase(name);
  const std::string* closest = &candidates.front();
  std::size_t best = static_cast<std::size_t>(-1);
  for (const std::string& candidate : candidates) {
    const std::size_t distance = edit_distance(folded, lowercase(candidate));
    if (distance < best) {
      best = distance;
      closest = &candidate;
    }
  }
  return *closest;
}

std::string read_text_file(const std::string& path, const std::string& what) {
  std::ifstream in(path);
  UCR_REQUIRE(in.is_open(), "cannot open " + what + " '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  UCR_REQUIRE(!in.bad(), "cannot read " + what + " '" + path + "'");
  return text.str();
}

}  // namespace ucr
