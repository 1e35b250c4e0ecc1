// The PROTEST command-line front end (the "CAD tool" shape of sect. 7),
// factored as a library function so tests can drive it directly.
//
// `protest help` prints the synopsis, generated from the flag table in
// cli.cpp: one row per flag naming the commands that read it, so a flag
// a command does not read is a usage error (exit 2), never ignored.
// analyze, optimize and scan each hold one AnalysisSession
// (protest/session.hpp); `serve` reads NDJSON requests from stdin
// (responses on `out`) unless --port selects the TCP front end.
//
// <file> is a .bench netlist or a DSL description (auto-detected by the
// presence of a 'module' definition), or zoo:<name> for a built-in circuit.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace protest {

/// Runs one CLI invocation; argv excludes the program name.  Returns the
/// process exit code (0 on success); all output goes to `out` / `err`.
int run_cli(const std::vector<std::string>& argv, std::ostream& out,
            std::ostream& err);

}  // namespace protest
