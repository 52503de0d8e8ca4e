// Command-line flags shared by the pqr and vsa_lint tools: `--key value`
// pairs, or a bare `--key` meaning "1". The getters remember every key
// they were asked for, so a command that has read all its flags can
// reject the rest: a mistyped or retired flag exits 2 instead of silently
// running the default.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>

namespace pulsarqr::cli {

struct Args {
  std::map<std::string, std::string> kv;
  mutable std::set<std::string> read;  ///< every key a getter asked for

  bool has(const std::string& k) const {
    read.insert(k);
    return kv.count(k) > 0;
  }
  int geti(const std::string& k, int dflt) const {
    return has(k) ? std::atoi(kv.at(k).c_str()) : dflt;
  }
  long long getll(const std::string& k, long long dflt) const {
    return has(k) ? std::atoll(kv.at(k).c_str()) : dflt;
  }
  std::string gets(const std::string& k, const std::string& dflt) const {
    return has(k) ? kv.at(k) : dflt;
  }
  double getd(const std::string& k, double dflt) const {
    return has(k) ? std::atof(kv.at(k).c_str()) : dflt;
  }
  /// Exit 2 naming any flag no getter has read. Commands call this after
  /// reading all their flags and before doing any work.
  void reject_unread() const {
    for (const auto& [k, v] : kv) {
      if (read.count(k) == 0) {
        std::fprintf(stderr, "unknown flag --%s for this command\n",
                     k.c_str());
        std::exit(2);
      }
    }
  }
};

/// The flags in argv[first..); any other argument exits 2.
inline Args parse(int argc, char** argv, int first) {
  Args a;
  for (int i = first; i < argc; ++i) {
    const char* arg = argv[i];
    if (arg[0] != '-' || arg[1] != '-') {
      std::fprintf(stderr, "unexpected argument: %s\n", arg);
      std::exit(2);
    }
    // Each value is built as a new string and moved in: assigning a
    // literal to the mapped string draws a GCC 12 -Wrestrict false
    // positive under -O3 (GCC PR105651).
    const bool valued = i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0;
    a.kv.insert_or_assign(std::string(arg + 2),
                          std::string(valued ? argv[++i] : "1"));
  }
  return a;
}

}  // namespace pulsarqr::cli
