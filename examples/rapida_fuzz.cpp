// Differential fuzzing harness CLI: generates random analytical queries
// plus randomized workload datasets from a seed, runs every query on all
// four engines at multiple thread counts, and cross-checks the normalized
// result multisets against the in-memory reference evaluator.
//
// Usage:
//   rapida_fuzz                      # corpus run, seeds 1..200
//   rapida_fuzz --seeds=50           # corpus run, seeds 1..50
//   rapida_fuzz --start=1000 --seeds=50     # seeds 1000..1049
//   rapida_fuzz --seed=42            # one seed, print query + verdict
//   rapida_fuzz --seed=42 --shrink   # minimize a failing seed to a repro
//   rapida_fuzz --threads=1,8        # exec_threads values to cross-check
//   rapida_fuzz --inject=drop-row --seeds=20 --shrink
//                                    # sabotage RAPIDAnalytics, prove the
//                                    # harness catches + shrinks the bug
//   rapida_fuzz --shards=4           # additionally run every engine on a
//                                    # 4-shard data plane, cross-checking
//                                    # results + cycle/shuffle counters
//                                    # against the unsharded baseline
//                                    # (comma list ok)
//   rapida_fuzz --grammar=opt-union  # bias the query generator hard
//                                    # toward OPTIONAL tails and UNION
//                                    # chains (default grammar includes
//                                    # them at lower rates)
//   rapida_fuzz --grammar=multival   # bias the DATA generator toward
//                                    # 3-10 objects per predicate-subject
//                                    # pair — the factorized
//                                    # (d-representation) stress regime
//   rapida_fuzz --no-factorize       # force factorized intermediates off
//                                    # (flat pipelines); run both ways to
//                                    # cross-check the d-representation
//   rapida_fuzz --service --seeds=50 # additionally push every query
//                                    # through a QueryService (caching,
//                                    # dedup, shared-scan batching) and
//                                    # cross-check against the reference
//
// Exit status: 0 = all seeds passed, 1 = at least one failure.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "testing/differential.h"
#include "testing/shrink.h"

namespace {

using rapida::difftest::DiffFailure;
using rapida::difftest::DiffOptions;
using rapida::difftest::FaultKind;
using rapida::difftest::FuzzCase;
using rapida::difftest::GenOptions;

struct Args {
  uint64_t start = 1;
  uint64_t seeds = 200;
  int64_t one_seed = -1;
  bool shrink = false;
  bool verbose = false;
  std::vector<int> threads = {1, 8};
  std::vector<int> shards;
  FaultKind fault = FaultKind::kNone;
  bool service = false;
  bool no_factorize = false;
  GenOptions gen;
};

bool ParseArgs(int argc, char** argv, Args* out) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--seeds=", 8) == 0) {
      out->seeds = std::strtoull(a + 8, nullptr, 10);
    } else if (std::strncmp(a, "--start=", 8) == 0) {
      out->start = std::strtoull(a + 8, nullptr, 10);
    } else if (std::strncmp(a, "--seed=", 7) == 0) {
      out->one_seed = std::strtoll(a + 7, nullptr, 10);
    } else if (std::strcmp(a, "--shrink") == 0) {
      out->shrink = true;
    } else if (std::strcmp(a, "--verbose") == 0) {
      out->verbose = true;
    } else if (std::strcmp(a, "--service") == 0) {
      out->service = true;
    } else if (std::strcmp(a, "--no-factorize") == 0) {
      out->no_factorize = true;
    } else if (std::strncmp(a, "--grammar=", 10) == 0) {
      if (std::strcmp(a + 10, "opt-union") == 0) {
        out->gen.optional_bias = 0.70;
        out->gen.union_bias = 0.50;
      } else if (std::strcmp(a + 10, "multival") == 0) {
        out->gen.multival = true;
      } else if (std::strcmp(a + 10, "default") != 0) {
        std::fprintf(stderr, "unknown --grammar: %s\n", a + 10);
        return false;
      }
    } else if (std::strncmp(a, "--shards=", 9) == 0) {
      for (const char* p = a + 9; *p != '\0';) {
        out->shards.push_back(std::atoi(p));
        const char* comma = std::strchr(p, ',');
        if (comma == nullptr) break;
        p = comma + 1;
      }
      if (out->shards.empty()) return false;
    } else if (std::strncmp(a, "--threads=", 10) == 0) {
      out->threads.clear();
      for (const char* p = a + 10; *p != '\0';) {
        out->threads.push_back(std::atoi(p));
        const char* comma = std::strchr(p, ',');
        if (comma == nullptr) break;
        p = comma + 1;
      }
      if (out->threads.empty()) return false;
    } else if (std::strncmp(a, "--inject=", 9) == 0) {
      if (std::strcmp(a + 9, "drop-row") == 0) {
        out->fault = FaultKind::kDropRow;
      } else if (std::strcmp(a + 9, "perturb-aggregate") == 0) {
        out->fault = FaultKind::kPerturbAggregate;
      } else {
        std::fprintf(stderr, "unknown --inject fault: %s\n", a + 9);
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a);
      return false;
    }
  }
  return true;
}

/// Runs one seed; returns true on pass. On failure prints the verdict and
/// (with --shrink) the minimized repro.
const char* InjectFlag(FaultKind fault) {
  switch (fault) {
    case FaultKind::kDropRow: return " --inject=drop-row";
    case FaultKind::kPerturbAggregate: return " --inject=perturb-aggregate";
    case FaultKind::kNone: break;
  }
  return "";
}

const char* GrammarFlag(const Args& args) {
  if (args.gen.multival) return " --grammar=multival";
  return args.gen.optional_bias > 0.5 ? " --grammar=opt-union" : "";
}

bool RunSeed(uint64_t seed, const Args& args, const DiffOptions& opts) {
  FuzzCase c = rapida::difftest::MakeFuzzCase(seed, args.gen);
  if (args.verbose) {
    std::printf("--- seed %llu (%s, %zu triples) ---\n%s\n",
                static_cast<unsigned long long>(seed), c.dataset.c_str(),
                c.triples.size(), c.query->ToString().c_str());
  }
  DiffFailure f = rapida::difftest::RunDifferential(c, opts);
  if (!f.failed && args.service) {
    f = rapida::difftest::RunServiceDifferential(c);
  }
  if (!f.failed) {
    if (args.verbose) std::printf("seed %llu: ok\n",
                                  static_cast<unsigned long long>(seed));
    return true;
  }
  std::printf("seed %llu FAILED: %s\n",
              static_cast<unsigned long long>(seed), f.ToString().c_str());
  if (args.shrink) {
    std::printf("shrinking...\n");
    rapida::difftest::ShrinkResult r =
        rapida::difftest::Shrink(c, opts);
    std::printf("shrunk after %d differential runs\n%s",
                r.predicate_calls,
                rapida::difftest::FormatRepro(r.reduced, r.failure).c_str());
    std::printf("reproduce with: rapida_fuzz --seed=%llu%s%s --shrink\n",
                static_cast<unsigned long long>(seed),
                InjectFlag(opts.fault), GrammarFlag(args));
  } else {
    std::printf("%s", rapida::difftest::FormatRepro(c, f).c_str());
    std::printf("minimize with: rapida_fuzz --seed=%llu%s%s --shrink\n",
                static_cast<unsigned long long>(seed),
                InjectFlag(opts.fault), GrammarFlag(args));
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;

  DiffOptions opts;
  opts.thread_counts = args.threads;
  opts.fault = args.fault;
  if (args.fault != FaultKind::kNone) opts.fault_engine = "RAPIDAnalytics";
  opts.engine_options.factorized_intermediates = !args.no_factorize;
  opts.shard_counts = args.shards;

  if (args.one_seed >= 0) {
    return RunSeed(static_cast<uint64_t>(args.one_seed), args, opts) ? 0 : 1;
  }

  uint64_t failures = 0;
  for (uint64_t s = args.start; s < args.start + args.seeds; ++s) {
    if (!RunSeed(s, args, opts)) ++failures;
    if ((s - args.start + 1) % 25 == 0) {
      std::printf("[%llu/%llu] seeds done, %llu failure(s)\n",
                  static_cast<unsigned long long>(s - args.start + 1),
                  static_cast<unsigned long long>(args.seeds),
                  static_cast<unsigned long long>(failures));
      std::fflush(stdout);
    }
  }
  std::printf("ran %llu seeds x %zu thread configs: %llu failure(s)\n",
              static_cast<unsigned long long>(args.seeds),
              args.threads.size(),
              static_cast<unsigned long long>(failures));
  return failures == 0 ? 0 : 1;
}
