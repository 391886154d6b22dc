#include "common/strings.hpp"

#include <cctype>
#include <fstream>
#include <sstream>

#include "common/check.hpp"

namespace ucr {

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

std::string read_text_file(const std::string& path, const std::string& what) {
  std::ifstream in(path);
  UCR_REQUIRE(in.is_open(), "cannot open " + what + " '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  UCR_REQUIRE(!in.bad(), "cannot read " + what + " '" + path + "'");
  return text.str();
}

}  // namespace ucr
