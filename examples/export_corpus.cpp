// Export the embedded corpus as .c files on disk, ready for psa_cli.
//
//   $ ./export_corpus [DIR]     (default: ./corpus_sources)
//   $ ./psa_cli corpus_sources/barnes_hut.c --progressive
//
// Exit codes: 0 written (or --help), 1 a file could not be written, 2 bad
// usage (an unknown option or more than one DIR).
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string_view>

#include "corpus/corpus.hpp"

namespace {

constexpr std::string_view kUsage =
    "usage: export_corpus [DIR]\n"
    "Write every corpus program to DIR/<name>.c (default DIR: "
    "corpus_sources).\n";

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string_view(argv[1]) == "--help") {
    std::cout << kUsage;
    return 0;
  }
  if (argc > 2 || (argc > 1 && argv[1][0] == '-')) {
    std::cerr << kUsage;
    return 2;
  }
  const std::filesystem::path dir = argc > 1 ? argv[1] : "corpus_sources";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::cerr << "cannot create '" << dir.string() << "': " << ec.message()
              << '\n';
    return 1;
  }
  for (const auto& program : psa::corpus::all_programs()) {
    const std::filesystem::path path = dir / (std::string(program.name) + ".c");
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot write " << path.string() << '\n';
      return 1;
    }
    out << "/* " << program.description << " */\n" << program.source;
    std::cout << path.string() << '\n';
  }
  return 0;
}
