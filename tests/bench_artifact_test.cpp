/// Tests for the canonical BENCH_<group>.json artifact layer and the
/// `greenfpga bench` CLI surface: byte-identical io::Json round-trips,
/// canonical `--out` writes, and the compare exit-code contract.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "bench/artifact.hpp"
#include "bench/harness.hpp"
#include "cli/commands.hpp"
#include "io/json.hpp"

namespace greenfpga::bench {
namespace {

struct CliRun {
  int exit_code = 0;
  std::string out;
  std::string err;
};

CliRun run_cli(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = cli::dispatch(args, out, err);
  return {code, out.str(), err.str()};
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string temp_dir(const std::string& leaf) {
  const std::string path = ::testing::TempDir() + "/" + leaf;
  std::filesystem::remove_all(path);
  return path;
}

CaseResult sample_result(const std::string& group, const std::string& name) {
  CaseResult result;
  result.group = group;
  result.name = name;
  result.warmup = 2;
  result.repetitions = 15;
  result.iterations = 64;
  result.seconds = compute_stats({1.25e-3, 1.5e-3, 2e-3, 1e-3, 1.75e-3});
  result.ops_per_s = 1.0 / result.seconds.median;
  result.bytes_per_s = 1024.0 / result.seconds.median;
  return result;
}

BenchArtifact sample_artifact() {
  BenchArtifact artifact;
  artifact.group = "engine";
  artifact.environment = capture_environment();
  artifact.cases = {sample_result("engine", "grid_50x50"),
                    sample_result("engine", "grid_tiny")};
  return artifact;
}

// ---------------------------------------------------------------------------
// Artifact JSON round-trips
// ---------------------------------------------------------------------------

TEST(BenchArtifact, RoundTripIsByteIdentical) {
  const BenchArtifact artifact = sample_artifact();
  const std::string first = artifact_to_json(artifact).dump(2);
  const BenchArtifact reloaded = artifact_from_json(io::parse_json(first));
  const std::string second = artifact_to_json(reloaded).dump(2);
  EXPECT_EQ(first, second);
  EXPECT_EQ(reloaded.schema, kArtifactSchema);
  EXPECT_EQ(reloaded.group, "engine");
  ASSERT_EQ(reloaded.cases.size(), 2u);
  EXPECT_EQ(reloaded.cases[0].id(), "engine/grid_50x50");
  EXPECT_DOUBLE_EQ(reloaded.cases[0].seconds.median, artifact.cases[0].seconds.median);
  EXPECT_DOUBLE_EQ(reloaded.cases[0].seconds.mad, artifact.cases[0].seconds.mad);
  EXPECT_EQ(reloaded.cases[0].iterations, 64);
  EXPECT_EQ(reloaded.environment.cores, artifact.environment.cores);
  EXPECT_EQ(reloaded.environment.compiler, artifact.environment.compiler);
}

TEST(BenchArtifact, UnknownSchemaThrows) {
  io::Json json = artifact_to_json(sample_artifact());
  json["schema"] = "greenfpga-bench/99";
  EXPECT_THROW((void)artifact_from_json(json), io::JsonError);
}

TEST(BenchArtifact, FilenameConvention) {
  EXPECT_EQ(artifact_filename("engine"), "BENCH_engine.json");
  EXPECT_EQ(artifact_filename("json"), "BENCH_json.json");
}

TEST(BenchArtifact, FileWriteIsCanonical) {
  const std::string dir = temp_dir("greenfpga_bench_artifact");
  const std::string path = dir + "/" + artifact_filename("engine");
  const BenchArtifact artifact = sample_artifact();
  write_artifact_file(path, artifact);
  // Exactly the canonical pretty dump plus the repo-wide trailing newline.
  EXPECT_EQ(read_file(path), artifact_to_json(artifact).dump(2) + "\n");
  const BenchArtifact reloaded = read_artifact_file(path);
  EXPECT_EQ(artifact_to_json(reloaded).dump(2), artifact_to_json(artifact).dump(2));
  std::filesystem::remove_all(dir);
}

TEST(BenchArtifact, GroupingPreservesFirstSeenOrder) {
  const std::vector<CaseResult> results{
      sample_result("json", "parse"), sample_result("cache", "hit"),
      sample_result("json", "dump"), sample_result("cache", "miss")};
  const std::vector<BenchArtifact> artifacts =
      artifacts_from_results(results, capture_environment());
  ASSERT_EQ(artifacts.size(), 2u);
  EXPECT_EQ(artifacts[0].group, "json");
  ASSERT_EQ(artifacts[0].cases.size(), 2u);
  EXPECT_EQ(artifacts[0].cases[1].name, "dump");
  EXPECT_EQ(artifacts[1].group, "cache");
}

// ---------------------------------------------------------------------------
// CLI surface: `greenfpga bench`
// ---------------------------------------------------------------------------

TEST(BenchCli, ListEnumeratesBuiltinCases) {
  const CliRun result = run_cli({"bench", "--list"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  for (const char* id : {"engine/grid_50x50", "mc/samples_256",
                         "frontier/four_way_16x12", "batch/fleet_mixed",
                         "json/parse_result", "json/dump_result", "cache/hit",
                         "cache/miss"}) {
    EXPECT_NE(result.out.find(id), std::string::npos) << id;
  }
}

TEST(BenchCli, QuickFilteredJsonSmoke) {
  const CliRun result = run_cli({"bench", "--quick", "--filter", "^json/"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("json/parse_result"), std::string::npos);
  EXPECT_NE(result.out.find("json/dump_result"), std::string::npos);
  // Filtered-out groups must not run.
  EXPECT_EQ(result.out.find("engine/grid_50x50"), std::string::npos);
}

TEST(BenchCli, OutWritesCanonicalArtifacts) {
  const std::string dir = temp_dir("greenfpga_bench_out");
  const CliRun result =
      run_cli({"bench", "--quick", "--filter", "^cache/", "--out", dir});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  const std::string path = dir + "/" + artifact_filename("cache");
  ASSERT_TRUE(std::filesystem::exists(path));
  const BenchArtifact artifact = read_artifact_file(path);
  EXPECT_EQ(artifact.group, "cache");
  ASSERT_EQ(artifact.cases.size(), 2u);
  EXPECT_GT(artifact.cases[0].seconds.median, 0.0);
  // The written bytes are the canonical dump of the reloaded artifact.
  EXPECT_EQ(read_file(path), artifact_to_json(artifact).dump(2) + "\n");
  std::filesystem::remove_all(dir);
}

/// `artifact` moved to `group`, cases included.
BenchArtifact regrouped(BenchArtifact artifact, const std::string& group) {
  artifact.group = group;
  for (CaseResult& result : artifact.cases) {
    result.group = group;
  }
  return artifact;
}

TEST(BenchCli, CompareAgainstFreshBaselinePasses) {
  const std::string dir = temp_dir("greenfpga_bench_baseline");
  ASSERT_EQ(
      run_cli({"bench", "--quick", "--filter", "^cache/", "--out", dir}).exit_code, 0);
  // A baseline group the filter excludes is dropped, not reported missing.
  const BenchArtifact other =
      regrouped(read_artifact_file(dir + "/" + artifact_filename("cache")), "json");
  write_artifact_file(dir + "/" + artifact_filename("json"), other);
  const CliRun result = run_cli({"bench", "--quick", "--filter", "^cache/",
                                 "--compare", dir, "--max-regression", "1000"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("within"), std::string::npos);
  EXPECT_EQ(result.out.find("json/"), std::string::npos) << result.out;
  std::filesystem::remove_all(dir);
}

TEST(BenchCli, CompareFailsNamingTheRegressedCase) {
  const std::string dir = temp_dir("greenfpga_bench_regressed");
  ASSERT_EQ(
      run_cli({"bench", "--quick", "--filter", "^cache/hit", "--out", dir}).exit_code, 0);
  // Shrink the baseline median so the fresh run necessarily "regresses".
  const std::string path = dir + "/" + artifact_filename("cache");
  BenchArtifact baseline = read_artifact_file(path);
  ASSERT_EQ(baseline.cases.size(), 1u);
  baseline.cases[0].seconds.median = 1e-15;
  write_artifact_file(path, baseline);
  const CliRun result = run_cli({"bench", "--quick", "--filter", "^cache/hit",
                                 "--compare", dir, "--max-regression", "10"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("cache/hit"), std::string::npos);
  EXPECT_NE(result.err.find("regressed"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(BenchCli, CompareFailsOnBaselineCaseGoneMissing) {
  const std::string dir = temp_dir("greenfpga_bench_missing");
  ASSERT_EQ(
      run_cli({"bench", "--quick", "--filter", "^cache/", "--out", dir}).exit_code, 0);
  // A baseline case the current registry does not produce (e.g. a rename).
  const std::string path = dir + "/" + artifact_filename("cache");
  BenchArtifact baseline = read_artifact_file(path);
  CaseResult ghost = baseline.cases[0];
  ghost.name = "renamed_away";
  baseline.cases.push_back(ghost);
  write_artifact_file(path, baseline);
  const CliRun result = run_cli({"bench", "--quick", "--filter", "^cache/",
                                 "--compare", dir, "--max-regression", "1000"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("cache/renamed_away"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(BenchCli, CompareFailsOnBaselineGroupNoCaseProduces) {
  const std::string dir = temp_dir("greenfpga_bench_ghost_group");
  ASSERT_EQ(
      run_cli({"bench", "--quick", "--filter", "^cache/", "--out", dir}).exit_code, 0);
  // A whole baseline group no registered case produces (e.g. one written
  // by a deleted driver) fails the gate instead of passing unchecked.
  const BenchArtifact ghost =
      regrouped(read_artifact_file(dir + "/" + artifact_filename("cache")), "ghost");
  write_artifact_file(dir + "/" + artifact_filename("ghost"), ghost);
  const CliRun result = run_cli({"bench", "--quick", "--filter", "^(cache|ghost)/",
                                 "--compare", dir, "--max-regression", "1000"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.err.find("ghost/" + ghost.cases[0].name), std::string::npos)
      << result.err;
  EXPECT_EQ(result.out.find("skipping"), std::string::npos) << result.out;
  std::filesystem::remove_all(dir);
}

TEST(BenchCli, UsageErrors) {
  // --max-regression without --compare is a usage error.
  EXPECT_EQ(run_cli({"bench", "--max-regression", "10"}).exit_code, 2);
  // Invalid regex.
  EXPECT_EQ(run_cli({"bench", "--filter", "["}).exit_code, 2);
  // Filter matching nothing.
  EXPECT_EQ(run_cli({"bench", "--filter", "^nothing-matches$", "--quick"}).exit_code, 2);
  // Non-numeric / non-positive threshold.
  EXPECT_EQ(run_cli({"bench", "--compare", "x.json", "--max-regression", "abc"})
                .exit_code, 2);
  EXPECT_EQ(run_cli({"bench", "--compare", "x.json", "--max-regression", "0"})
                .exit_code, 2);
  // A non-finite factor would silently disable the regression gate.
  EXPECT_EQ(run_cli({"bench", "--compare", "x.json", "--max-regression", "inf"})
                .exit_code, 2);
  EXPECT_EQ(run_cli({"bench", "--compare", "x.json", "--max-regression", "nan"})
                .exit_code, 2);
  // Single-file --out with more than one group.
  const CliRun multi = run_cli({"bench", "--quick", "--filter", "^(json|cache)/",
                                "--out", ::testing::TempDir() + "/multi.json"});
  EXPECT_EQ(multi.exit_code, 2);
}

TEST(BenchCli, MissingBaselinePathFails) {
  const CliRun result = run_cli({"bench", "--quick", "--filter", "^cache/hit",
                                 "--compare",
                                 ::testing::TempDir() + "/no_such_baseline.json"});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_FALSE(result.err.empty());
}

}  // namespace
}  // namespace greenfpga::bench
