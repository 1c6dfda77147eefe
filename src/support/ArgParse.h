//===- support/ArgParse.h - Strict CLI integer parsing ----------*- C++ -*-===//
///
/// \file
/// Whole-string, range-checked integer parsing for the command-line tools.
/// The raw strtoll/strtoull idiom has two traps these helpers close: a
/// non-numeric string silently parses as 0 (so `--run 3 x` executed with a
/// bogus argument), and strtoull wraps negative input (so `--jobs=-1`
/// became a four-billion-thread request). Every integer helper consumes the
/// entire string or fails. wantsHelp() finds a help request among the
/// arguments.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_SUPPORT_ARGPARSE_H
#define FCC_SUPPORT_ARGPARSE_H

#include <cstdint>
#include <string>
#include <vector>

namespace fcc {

/// Parses a signed decimal integer. The whole string must be consumed and
/// the value must fit in int64_t; leading/trailing whitespace, empty input
/// and partial parses all fail.
bool parseInt64Arg(const std::string &Text, int64_t &Out);

/// Parses an unsigned decimal integer. Rejects any sign character (strtoull
/// would silently wrap "-1") as well as partial parses and overflow.
bool parseUint64Arg(const std::string &Text, uint64_t &Out);

/// Splits \p Text on commas and parses each piece with parseInt64Arg,
/// appending to \p Out. On failure returns false with \p BadToken set to
/// the offending piece (possibly empty, for inputs like "1,,2") and leaves
/// successfully parsed prefixes in \p Out.
bool splitIntList(const std::string &Text, std::vector<int64_t> &Out,
                  std::string &BadToken);

/// True when some argument is "--help" or "-h": the tools then print their
/// usage to stdout and exit 0 instead of parsing the rest.
bool wantsHelp(int Argc, char **Argv);

} // namespace fcc

#endif // FCC_SUPPORT_ARGPARSE_H
