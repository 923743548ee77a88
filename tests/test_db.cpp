// Tests for the compilation database file (src/db/database.hpp): the
// bytes-to-bytes container femtod --db reads behind its plan store, filled
// here the way femto-db fills it -- canonical request bytes -> the
// canonical response a DONE compile of that request serves.
//
// The load-bearing properties are (1) a stored response comes back byte
// for byte, and decodes and re-encodes to the same bytes, so serving from
// the file is indistinguishable from compiling; (2) every defect of the
// file is a specific diagnostic on open, never a crash and never a
// silently empty database; (3) no failure of a rewrite -- short write,
// failed fsync, or the process dying mid-write -- clobbers the previous
// good file.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/failpoint.hpp"
#include "core/pipeline.hpp"
#include "db/database.hpp"
#include "obs/metrics.hpp"
#include "service/protocol.hpp"

namespace femto {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A small UCCSD-shaped request (no chemistry stack); `seed` tells entries
/// apart.
core::CompileRequest tiny_request(std::uint64_t seed) {
  core::CompileScenario s;
  s.name = "db/uccsd4";
  s.num_qubits = 4;
  s.terms = {fermion::ExcitationTerm::make_double(2, 3, 0, 1),
             fermion::ExcitationTerm::single(2, 0)};
  s.options.transform = core::TransformKind::kAdvanced;
  s.options.sorting = core::SortingMode::kAdvanced;
  s.options.coloring_orders = 4;
  s.options.sa_options.steps = 100;
  s.options.gtsp_options.population = 8;
  s.options.gtsp_options.generations = 10;
  s.options.emit_circuit = true;
  return {.scenarios = {s}, .restarts = 2, .seed = seed, .verify = true};
}

struct Entry {
  std::string key;    // canonical request bytes
  std::string value;  // canonical response bytes
};

Entry entry_for(std::uint64_t seed) {
  core::CompilePipeline pipeline({.workers = 2});
  const core::CompileRequest request = tiny_request(seed);
  const core::CompileResponse response = pipeline.compile(request);
  EXPECT_TRUE(response.done());
  return {service::protocol::coalesce_key(request),
          service::protocol::encode_response(
              service::protocol::summarize(response,
                                           /*include_circuits=*/true))
              .encode()};
}

/// Three compiled request entries, shared by every test.
const std::vector<Entry>& entries() {
  static const std::vector<Entry> all = {entry_for(1), entry_for(2),
                                         entry_for(3)};
  return all;
}

/// Writes a database holding entries() and returns its path.
std::string build_small_db(const std::string& name) {
  db::DatabaseBuilder builder;
  for (const Entry& e : entries()) builder.insert(e.key, e.value);
  const std::string path = temp_path(name);
  EXPECT_EQ(builder.write(path), "");
  return path;
}

// ---- database file --------------------------------------------------------

TEST(Database, RoundTripsEveryStoredResponse) {
  const std::string path = build_small_db("roundtrip.fdb");
  std::string err;
  const auto database = db::Database::open(path, &err);
  ASSERT_TRUE(database.has_value()) << err;
  EXPECT_EQ(database->entry_count(), entries().size());
  EXPECT_EQ(database->format_version(), db::kFormatVersion);
  EXPECT_EQ(database->compile_contract(), db::kCompileContract);
  for (const Entry& e : entries()) {
    const auto served = database->lookup(e.key);
    ASSERT_TRUE(served.has_value());
    EXPECT_EQ(*served, e.value);
    // What the service does with a file hit: decode, keep, re-encode on
    // the wire. The round trip must reproduce the stored bytes exactly.
    const auto parsed = service::json::parse(*served, &err);
    ASSERT_TRUE(parsed.has_value()) << err;
    service::protocol::WireResponse decoded;
    ASSERT_TRUE(service::protocol::decode_response(*parsed, decoded, err))
        << err;
    EXPECT_EQ(service::protocol::encode_response(decoded).encode(), e.value);
  }
  // Only byte-identical requests hit: another seed is another request.
  EXPECT_FALSE(
      database->lookup(service::protocol::coalesce_key(tiny_request(4)))
          .has_value());
  EXPECT_FALSE(database->lookup("").has_value());
}

TEST(Database, AppendWorkflowKeepsExistingEntries) {
  const std::string path = build_small_db("append_base.fdb");
  std::string err;
  const auto base = db::Database::open(path, &err);
  ASSERT_TRUE(base.has_value()) << err;

  db::DatabaseBuilder builder;
  builder.merge_from(*base);
  builder.insert(entries()[0].key, "a later value for a stored key loses");
  const Entry extra = entry_for(5);
  builder.insert(extra.key, extra.value);
  const std::string merged_path = temp_path("append_merged.fdb");
  ASSERT_EQ(builder.write(merged_path), "");

  const auto merged = db::Database::open(merged_path, &err);
  ASSERT_TRUE(merged.has_value()) << err;
  EXPECT_EQ(merged->entry_count(), base->entry_count() + 1);
  for (const Entry& e : entries())
    EXPECT_EQ(merged->lookup(e.key), std::optional<std::string_view>(e.value));
  EXPECT_EQ(merged->lookup(extra.key),
            std::optional<std::string_view>(extra.value));
}

TEST(Database, RejectsZeroLengthFile) {
  const std::string path = temp_path("zero.fdb");
  write_file(path, "");
  std::string err;
  EXPECT_FALSE(db::Database::open(path, &err).has_value());
  EXPECT_NE(err.find("zero-length"), std::string::npos) << err;
}

TEST(Database, RejectsGarbageMagic) {
  const std::string path = temp_path("garbage.fdb");
  write_file(path, std::string(256, 'q'));
  std::string err;
  EXPECT_FALSE(db::Database::open(path, &err).has_value());
  EXPECT_NE(err.find("not a femto-db database"), std::string::npos) << err;
}

TEST(Database, RejectsTruncatedFile) {
  const std::string path = build_small_db("truncate.fdb");
  const std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 100u);
  // Cut mid-values: the recorded file size no longer matches.
  write_file(path, bytes.substr(0, bytes.size() - 40));
  std::string err;
  EXPECT_FALSE(db::Database::open(path, &err).has_value());
  EXPECT_NE(err.find("truncated"), std::string::npos) << err;
  // Cut inside the fixed header.
  write_file(path, bytes.substr(0, 20));
  EXPECT_FALSE(db::Database::open(path, &err).has_value());
  EXPECT_NE(err.find("truncated header"), std::string::npos) << err;
}

TEST(Database, RejectsCorruptedSection) {
  const std::string path = build_small_db("corrupt.fdb");
  std::string bytes = read_file(path);
  bytes[bytes.size() - 5] ^= 0x40;  // flip one bit in the last section
  write_file(path, bytes);
  std::string err;
  EXPECT_FALSE(db::Database::open(path, &err).has_value());
  EXPECT_NE(err.find("checksum mismatch"), std::string::npos) << err;
}

TEST(Database, RejectsFormatVersionMismatch) {
  const std::string path = build_small_db("version.fdb");
  std::string bytes = read_file(path);
  bytes[8] = 1;  // format v1 held block-sequence entries
  write_file(path, bytes);
  std::string err;
  EXPECT_FALSE(db::Database::open(path, &err).has_value());
  EXPECT_NE(err.find("format version mismatch"), std::string::npos) << err;
}

TEST(Database, RejectsCompileContractMismatch) {
  const std::string path = build_small_db("contract.fdb");
  std::string bytes = read_file(path);
  bytes[12] = 99;  // compile contract field
  write_file(path, bytes);
  std::string err;
  EXPECT_FALSE(db::Database::open(path, &err).has_value());
  EXPECT_NE(err.find("compile contract mismatch"), std::string::npos) << err;
}

// ---- the compile contract -------------------------------------------------
// A file serves only under the kCompileContract it was built with, so the
// constant must move whenever any served byte does. These hashes tie it to
// the canonical responses of fixed seeded requests over every transform
// and every built-in target: a change that moves a count, a gate or an
// encoding fails here until the contract is bumped alongside new hashes.

TEST(CompileContract, PinsTheServedBytesOfFixedRequests) {
  EXPECT_EQ(db::kCompileContract, 1u);

  core::CompileRequest transforms = tiny_request(7);
  for (const core::TransformKind kind :
       {core::TransformKind::kJordanWigner, core::TransformKind::kBravyiKitaev,
        core::TransformKind::kBaselineGT}) {
    core::CompileScenario s = transforms.scenarios.front();
    s.name += "/" + std::string(service::protocol::to_string(kind));
    s.options.transform = kind;
    s.options.pso_options.particles = 4;
    s.options.pso_options.iterations = 4;
    transforms.scenarios.push_back(std::move(s));
  }
  core::CompileRequest targets = tiny_request(8);
  targets.targets = {synth::HardwareTarget::all_to_all_cnot(),
                     synth::HardwareTarget::trapped_ion_xx(),
                     synth::HardwareTarget::linear_nn(4)};

  // The Adv search proper on every kind of device its objectives price:
  // uncompressed terms whose Gamma blocks are {0, 1, 3} and {2, 4, 5}, so the
  // SA moves and the <= 12-term hill climb proposes new candidates, compiled
  // for the default model, the XX partner form, a routed CNOT line and a
  // routed XX line.
  core::CompileRequest adv = tiny_request(9);
  {
    core::CompileScenario& s = adv.scenarios.front();
    s.name = "db/adv6";
    s.num_qubits = 6;
    s.terms = {fermion::ExcitationTerm::make_double(4, 5, 0, 1),
               fermion::ExcitationTerm::make_double(2, 5, 1, 3),
               fermion::ExcitationTerm::single(3, 0),
               fermion::ExcitationTerm::single(4, 2)};
    s.options.compression = core::CompressionMode::kNone;
    s.options.sa_options.steps = 300;
    synth::HardwareTarget xx_line = synth::HardwareTarget::linear_nn(6);
    xx_line.name = "xx_line";
    xx_line.entangler = synth::EntanglerKind::kXX;
    adv.targets = {synth::HardwareTarget::all_to_all_cnot(),
                   synth::HardwareTarget::trapped_ion_xx(),
                   synth::HardwareTarget::linear_nn(6), xx_line};
  }

  core::CompilePipeline pipeline({.workers = 2});
  const std::pair<const core::CompileRequest*, std::uint64_t> pins[] = {
      {&transforms, 0x27962d82e863c84fULL},
      {&targets, 0x55c83080982d318eULL},
      {&adv, 0x7f6af187076fdfa1ULL},
  };
  for (const auto& [request, hash] : pins) {
    obs::Counter& sa_steps = obs::registry().counter("solver.sa_steps");
    obs::Counter& gtsp_solves = obs::registry().counter("solver.gtsp_solves");
    const std::uint64_t steps_before = sa_steps.value();
    const std::uint64_t solves_before = gtsp_solves.value();
    const core::CompileResponse response = pipeline.compile(*request);
    ASSERT_TRUE(response.done()) << response.detail;
    EXPECT_EQ(db::fnv1a(service::protocol::canonical_response(response)),
              hash)
        << "served bytes moved: bump db::kCompileContract and re-pin";
    if (request != &adv) continue;
    // 4 targets x 2 restarts. Each compile sorts its one fermionic chunk at
    // emission and prices at most two Gammas besides the climb's proposals
    // (the annealed one and identity), so more than 3 GTSP solves per
    // compile means the climb priced Gammas the SA's blocks moved.
    const std::uint64_t compiles = 8;
    EXPECT_EQ(sa_steps.value() - steps_before, compiles * 300);
    EXPECT_GT(gtsp_solves.value() - solves_before, compiles * 3);
  }
}

TEST(Database, RejectsCorruptedHeader) {
  const std::string path = build_small_db("header.fdb");
  std::string bytes = read_file(path);
  bytes[25] ^= 0x01;  // entry count field: header crc must catch it
  write_file(path, bytes);
  std::string err;
  EXPECT_FALSE(db::Database::open(path, &err).has_value());
  EXPECT_TRUE(err.find("checksum mismatch") != std::string::npos ||
              err.find("inconsistent") != std::string::npos)
      << err;
}

TEST(Database, ConcurrentReadersSeeIdenticalResponses) {
  const std::string path = build_small_db("concurrent.fdb");
  std::string err;
  const auto database = db::Database::open(path, &err);
  ASSERT_TRUE(database.has_value()) << err;

  constexpr int kThreads = 8, kRounds = 50;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round)
        for (const Entry& e : entries()) {
          const auto served = database->lookup(e.key);
          if (!served.has_value() || *served != e.value) ++mismatches[t];
        }
    });
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
}

// ---- crash-safe writes (failpoint-driven) ---------------------------------
// DatabaseBuilder::write goes through <path>.tmp.<pid> + fsync + atomic
// rename, so NO failure mode of the write -- short write, failed fsync, or
// the process dying mid-write -- may ever clobber the previous good file.

TEST(CrashSafety, ShortWriteLeavesPreviousDatabaseIntact) {
  const std::string path = build_small_db("crash_short.fdb");
  const std::string before = read_file(path);
  ASSERT_FALSE(before.empty());

  db::DatabaseBuilder builder;
  builder.insert(entries()[2].key, entries()[2].value);
  ASSERT_EQ(fail::registry().arm("db.write.short:1:1"), "");
  const std::string err = builder.write(path);
  ASSERT_TRUE(fail::registry().disarm("db.write.short"));
  EXPECT_NE(err.find("short write"), std::string::npos) << err;
  EXPECT_NE(err.find("left intact"), std::string::npos) << err;
  EXPECT_EQ(read_file(path), before) << "previous database was clobbered";
  // The torn tmp must not linger.
  EXPECT_TRUE(read_file(path + ".tmp." + std::to_string(::getpid())).empty());

  // Disarmed, the same builder writes fine (over the old file, atomically).
  EXPECT_EQ(builder.write(path), "");
  std::string open_err;
  EXPECT_TRUE(db::Database::open(path, &open_err).has_value()) << open_err;
}

TEST(CrashSafety, FsyncFailureLeavesPreviousDatabaseIntact) {
  const std::string path = build_small_db("crash_fsync.fdb");
  const std::string before = read_file(path);
  db::DatabaseBuilder builder;
  builder.insert(entries()[1].key, entries()[1].value);
  ASSERT_EQ(fail::registry().arm("db.fsync:1:1"), "");
  const std::string err = builder.write(path);
  ASSERT_TRUE(fail::registry().disarm("db.fsync"));
  EXPECT_FALSE(err.empty());
  EXPECT_EQ(read_file(path), before);
}

TEST(CrashSafety, KillMidWriteLeavesPreviousDatabaseLoadable) {
  const std::string path = build_small_db("crash_kill.fdb");
  const std::string before = read_file(path);
  std::string open_err;
  const auto base = db::Database::open(path, &open_err);
  ASSERT_TRUE(base.has_value()) << open_err;
  const std::size_t entries_before = base->entry_count();

  // The child arms db.write.kill and rewrites the live path: it dies with
  // _Exit(137) mid-write, leaving only a torn tmp file behind.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ASSERT_EQ(fail::registry().arm("db.write.kill:1:1"), "");
    db::DatabaseBuilder builder;
    builder.merge_from(*base);
    static_cast<void>(builder.write(path));
    ::_exit(0);  // write survived: the failpoint did not fire -- fail below
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 137)
      << "child should have died inside the armed write";

  // The previous database is byte-identical and loads.
  EXPECT_EQ(read_file(path), before);
  const auto after = db::Database::open(path, &open_err);
  ASSERT_TRUE(after.has_value()) << open_err;
  EXPECT_EQ(after->entry_count(), entries_before);
  // Clean up the torn tmp the "crash" left behind.
  std::remove((path + ".tmp." + std::to_string(pid)).c_str());
}

}  // namespace
}  // namespace femto
