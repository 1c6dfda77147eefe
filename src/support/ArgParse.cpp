//===- support/ArgParse.cpp -----------------------------------------------===//

#include "support/ArgParse.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

using namespace fcc;

bool fcc::parseInt64Arg(const std::string &Text, int64_t &Out) {
  if (Text.empty() || std::isspace(static_cast<unsigned char>(Text[0])))
    return false;
  errno = 0;
  char *End = nullptr;
  long long Value = std::strtoll(Text.c_str(), &End, 10);
  if (errno == ERANGE || End == Text.c_str() || *End != '\0')
    return false;
  Out = static_cast<int64_t>(Value);
  return true;
}

bool fcc::parseUint64Arg(const std::string &Text, uint64_t &Out) {
  // strtoull accepts and wraps a leading '-'; an unsigned option must not.
  if (Text.empty() || !std::isdigit(static_cast<unsigned char>(Text[0])))
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long Value = std::strtoull(Text.c_str(), &End, 10);
  if (errno == ERANGE || *End != '\0')
    return false;
  Out = static_cast<uint64_t>(Value);
  return true;
}

bool fcc::splitIntList(const std::string &Text, std::vector<int64_t> &Out,
                       std::string &BadToken) {
  size_t Pos = 0;
  while (true) {
    size_t Comma = Text.find(',', Pos);
    std::string Token = Text.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    int64_t Value = 0;
    if (!parseInt64Arg(Token, Value)) {
      BadToken = std::move(Token);
      return false;
    }
    Out.push_back(Value);
    if (Comma == std::string::npos)
      return true;
    Pos = Comma + 1;
  }
}

bool fcc::wantsHelp(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], "--help") == 0 || std::strcmp(Argv[I], "-h") == 0)
      return true;
  return false;
}
