// Docs drift gate: docs/PROTOCOLS.md promises one section per registered
// protocol, so its headings are checked against the live catalogue —
// add a protocol to the registry and this test fails until the catalog
// documents it. README must link both documentation pages.
//
// UCR_REPO_ROOT is injected by tests/CMakeLists.txt so the test is
// independent of the ctest working directory.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/registry.hpp"

namespace ucr {
namespace {

std::string read_repo_file(const std::string& relative) {
  const std::string path = std::string(UCR_REPO_ROOT) + "/" + relative;
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(ProtocolsDoc, EveryRegisteredProtocolHasASection) {
  const std::string doc = read_repo_file("docs/PROTOCOLS.md");
  ASSERT_FALSE(doc.empty());
  // The catalogue ucr_cli --list prints and compile() resolves names in.
  for (const auto& protocol : default_catalogue()) {
    const std::string heading = "## " + protocol.name + "\n";
    EXPECT_NE(doc.find(heading), std::string::npos)
        << "docs/PROTOCOLS.md is missing a '## " << protocol.name
        << "' section for registered protocol '" << protocol.name << "'";
  }
}

TEST(ProtocolsDoc, CatalogMentionsBothHintInterfaces) {
  // The catalog documents hint strength per protocol; the two interfaces
  // it refers to must stay named after the real ones.
  const std::string doc = read_repo_file("docs/PROTOCOLS.md");
  EXPECT_NE(doc.find("constant_probability_slots"), std::string::npos);
  EXPECT_NE(doc.find("stationary_slots"), std::string::npos);
}

TEST(ProtocolsDoc, ReadmeLinksTheDocs) {
  const std::string readme = read_repo_file("README.md");
  ASSERT_FALSE(readme.empty());
  EXPECT_NE(readme.find("docs/ARCHITECTURE.md"), std::string::npos)
      << "README.md must link docs/ARCHITECTURE.md";
  EXPECT_NE(readme.find("docs/PROTOCOLS.md"), std::string::npos)
      << "README.md must link docs/PROTOCOLS.md";
}

}  // namespace
}  // namespace ucr
