// e2e_tool — the benchmark's in-process half (see README.md).
//
//   e2e_tool gen <pdb|uniprot|scop> <out_csv_dir> <scale> <seed> [tables]
//       Writes a seeded CSV dump through src/datagen: PdbLike at
//       PaperScale(<scale>) shape (<tables> category tables when given),
//       UniprotLike with <scale> bioentries, or ScopLike with <scale>
//       domains.
//   e2e_tool profile <workspace> <sets_dir> <out_json> <job_file> <job>
//       Fresh reference: profiles the workspace in-process with a
//       fresh SpiderSession whose sorted sets live in <sets_dir> (no
//       persisted profile is read or written) and writes the report JSON.
//   e2e_tool replay <work_dir> <out_jsonl> <job_file> <needs_file>
//                   <base_csv> [delta_csv ...]
//       Imports <base_csv> into a private workspace, then for every state
//       (base, base+delta1, ...) runs each job that <needs_file> lists for
//       it (lines "<state> <job>") in a fresh session and writes
//       {"state":S,"job":"NAME","report":{...}} per job.
//   e2e_tool trace <work_dir> <job_file> <csv_dir> <per_round>
//                  [delta_csv ...]
//       The traced run: import, cold profile, restarted warm profile,
//       rounds of <per_round> appends + a reprofile, and every job of
//       <job_file>, calling each layer's public functions directly and
//       recording one span per call. Writes <work_dir>/spans.json and the
//       reports, prints one JSON line of layer counters.
//
//   e2e_tool exec <stats_file> <stdout_file> <program> [args ...]
//       Runs <program> with stdout redirected and writes "<wall seconds>
//       <peak RSS KiB> <exit code>" to <stats_file>. Launching from this
//       small process keeps the launcher's own memory out of the child's
//       peak RSS (a forked interpreter's pages would count toward it).
//
// <job_file> holds one job per line: "<name> key=value ...", where the
// pairs are run options exactly as `spider profile --key=value` and
// spiderd job bodies spell them (ParseRunOptions).

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/json_writer.h"
#include "src/datagen/pdb_like.h"
#include "src/datagen/scop_like.h"
#include "src/datagen/uniprot_like.h"
#include "src/extsort/profile_store.h"
#include "src/extsort/value_set_extractor.h"
#include "src/ind/candidate_generator.h"
#include "src/ind/registry.h"
#include "src/ind/report_json.h"
#include "src/ind/run_options_parse.h"
#include "src/ind/session.h"
#include "src/storage/csv.h"
#include "src/storage/disk_store.h"

namespace {

using namespace spider;
namespace fs = std::filesystem;

int Fail(const Status& status) {
  std::cerr << "e2e_tool: " << status.ToString() << "\n";
  return 1;
}

#define E2E_CHECK_OK(expr)                     \
  do {                                         \
    const Status e2e_status = (expr);          \
    if (!e2e_status.ok()) return e2e_status;   \
  } while (false)

// ---------------------------------------------------------------- spans --

// One span per call into a layer: name, start, end, parent (0 = none). The
// trace id groups the spans of one benchmark step. Spans stay in memory and
// are written out once at the end.
struct Span {
  int64_t id = 0;
  int64_t parent = 0;
  int64_t trace = 0;
  std::string name;
  double start_s = 0;
  double end_s = 0;
};

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  int64_t Begin(const std::string& name, int64_t trace) {
    Span span;
    span.id = static_cast<int64_t>(spans_.size()) + 1;
    span.parent = stack_.empty() ? 0 : stack_.back();
    span.trace = trace;
    span.name = name;
    span.start_s = Now();
    spans_.push_back(span);
    stack_.push_back(span.id);
    return span.id;
  }

  // Closes the innermost span and returns its duration in seconds.
  double End() {
    Span& span = spans_[static_cast<size_t>(stack_.back() - 1)];
    stack_.pop_back();
    span.end_s = Now();
    return span.end_s - span.start_s;
  }

  Status Write(const fs::path& path) const {
    JsonWriter json;
    json.BeginArray();
    for (const Span& span : spans_) {
      json.BeginObject();
      json.KV("id", span.id);
      json.KV("parent", span.parent);
      json.KV("trace", span.trace);
      json.KV("name", span.name);
      json.KV("start", span.start_s);
      json.KV("end", span.end_s);
      json.EndObject();
    }
    json.EndArray();
    std::ofstream out(path);
    out << json.str() << "\n";
    return out ? Status::OK() : Status::IOError("cannot write " + path.string());
  }

 private:
  double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int64_t> stack_;
};

// Runs `fn` inside a span; returns fn's Status.
template <typename Fn>
Status Traced(Tracer& tracer, const std::string& name, int64_t trace, Fn&& fn) {
  tracer.Begin(name, trace);
  Status status = fn();
  tracer.End();
  return status;
}

// ----------------------------------------------------------------- jobs --

struct JobSpec {
  std::string name;
  std::vector<RunOptionKv> pairs;
};

Result<std::vector<JobSpec>> ReadJobFile(const fs::path& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot read " + path.string());
  std::vector<JobSpec> jobs;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream words(line);
    JobSpec job;
    if (!(words >> job.name)) continue;
    std::string pair;
    while (words >> pair) {
      const size_t eq = pair.find('=');
      if (eq == std::string::npos) {
        return Status::InvalidArgument("job option without '=': " + pair);
      }
      job.pairs.push_back(RunOptionKv{pair.substr(0, eq), pair.substr(eq + 1)});
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

const JobSpec* FindJob(const std::vector<JobSpec>& jobs,
                       const std::string& name) {
  for (const JobSpec& job : jobs) {
    if (job.name == name) return &job;
  }
  return nullptr;
}

std::string ReportJson(const SessionReport& report, const Catalog& catalog) {
  ReportJsonContext context;
  context.backend = catalog.out_of_core() ? "disk" : "memory";
  context.tables = catalog.table_count();
  context.attributes = catalog.attribute_count();
  return SessionReportToJson(report, context);
}

Status WriteText(const fs::path& path, const std::string& text) {
  std::ofstream out(path);
  out << text << "\n";
  return out ? Status::OK() : Status::IOError("cannot write " + path.string());
}

int64_t TreeBytes(const fs::path& dir) {
  int64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += static_cast<int64_t>(entry.file_size(ec));
  }
  return bytes;
}

// Fresh session over a workspace: sorted sets go to `sets_dir`, no
// persisted profile is consulted.
Result<SessionReport> ProfileFresh(const Catalog& catalog,
                                         const fs::path& sets_dir,
                                         const JobSpec& job) {
  fs::remove_all(sets_dir);
  fs::create_directories(sets_dir);
  SPIDER_ASSIGN_OR_RETURN(RunOptions options, ParseRunOptions(job.pairs));
  SessionOptions session_options;
  session_options.work_dir = sets_dir.string();
  SpiderSession session(catalog, session_options);
  return session.Run(options);
}

Status ImportInto(const fs::path& csv_dir, const fs::path& workspace,
                  bool append) {
  std::unique_ptr<DiskCatalogWriter> writer;
  if (append) {
    SPIDER_ASSIGN_OR_RETURN(writer, DiskCatalogWriter::OpenForAppend(workspace));
  } else {
    SPIDER_ASSIGN_OR_RETURN(
        writer, DiskCatalogWriter::Create(workspace,
                                          csv_dir.filename().string()));
  }
  SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<Catalog> catalog,
                          ImportCsvDirectory(csv_dir, CsvOptions{}, *writer));
  (void)catalog;  // only the files on disk matter here
  return Status::OK();
}

// ------------------------------------------------------------- commands --

Status Gen(const std::string& kind, const fs::path& out, int64_t scale,
           uint64_t seed, int tables) {
  fs::create_directories(out);
  if (kind == "pdb") {
    datagen::PdbLikeOptions options = datagen::PdbLikeOptions::PaperScale(scale);
    options.seed = seed;
    if (tables > 0) {
      options.category_tables = tables;
      options.clean_entry_id_tables = std::max(1, tables / 4);
    }
    CsvCatalogSink sink(out);
    return datagen::WritePdbLike(options, sink);
  }
  std::unique_ptr<Catalog> catalog;
  if (kind == "uniprot") {
    datagen::UniprotLikeOptions options;
    options.bioentries = scale;
    options.seed = seed;
    SPIDER_ASSIGN_OR_RETURN(catalog, datagen::MakeUniprotLike(options));
  } else if (kind == "scop") {
    datagen::ScopLikeOptions options;
    options.domains = scale;
    options.seed = seed;
    SPIDER_ASSIGN_OR_RETURN(catalog, datagen::MakeScopLike(options));
  } else {
    return Status::InvalidArgument("unknown dataset kind '" + kind + "'");
  }
  for (int i = 0; i < catalog->table_count(); ++i) {
    const Table& table = catalog->table(i);
    E2E_CHECK_OK(WriteCsvTable(table, out / (table.name() + ".csv")));
  }
  return Status::OK();
}

Status Profile(const fs::path& workspace, const fs::path& sets_dir,
               const fs::path& out, const fs::path& job_file,
               const std::string& job_name) {
  SPIDER_ASSIGN_OR_RETURN(std::vector<JobSpec> jobs, ReadJobFile(job_file));
  const JobSpec* job = FindJob(jobs, job_name);
  if (job == nullptr) return Status::NotFound("no job '" + job_name + "'");
  SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<Catalog> catalog,
                          OpenDiskCatalog(workspace));
  SPIDER_ASSIGN_OR_RETURN(SessionReport report,
                          ProfileFresh(*catalog, sets_dir, *job));
  fs::remove_all(sets_dir);
  return WriteText(out, ReportJson(report, *catalog));
}

Status Replay(const fs::path& work_dir, const fs::path& out,
              const fs::path& job_file, const fs::path& needs_file,
              const std::vector<fs::path>& dumps) {
  SPIDER_ASSIGN_OR_RETURN(std::vector<JobSpec> jobs, ReadJobFile(job_file));
  std::set<std::pair<size_t, std::string>> needs;
  {
    std::ifstream in(needs_file);
    size_t state = 0;
    std::string job;
    while (in >> state >> job) needs.emplace(state, job);
  }
  fs::remove_all(work_dir);
  const fs::path workspace = work_dir / "ws";
  std::ofstream lines(out);
  for (size_t state = 0; state < dumps.size(); ++state) {
    E2E_CHECK_OK(ImportInto(dumps[state], workspace, state > 0));
    SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<Catalog> catalog,
                            OpenDiskCatalog(workspace));
    for (const JobSpec& job : jobs) {
      if (needs.count({state, job.name}) == 0) continue;
      SPIDER_ASSIGN_OR_RETURN(
          SessionReport report,
          ProfileFresh(*catalog, work_dir / "sets", job));
      lines << "{\"state\":" << state << ",\"job\":\""
            << JsonWriter::Escape(job.name)
            << "\",\"report\":" << ReportJson(report, *catalog) << "}\n";
    }
  }
  fs::remove_all(work_dir);
  return lines ? Status::OK() : Status::IOError("cannot write " + out.string());
}

// Layer counters the traced run reports next to its spans.
class Counters {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  void Add(const std::string& name, double value) { values_[name] += value; }
  std::string ToJson() const {
    JsonWriter json;
    json.BeginObject();
    for (const auto& [name, value] : values_) json.KV(name, value);
    json.EndObject();
    return json.str();
  }

 private:
  std::map<std::string, double> values_;
};

// The session's cold path, one layer call at a time, on a private copy of
// the freshly imported workspace: statistics + candidates, extraction and
// sort of every candidate attribute, spider-merge over the extracted sets,
// and sealing the verdicts into the profile.
Status TraceColdLayers(Tracer& tracer, Counters& counters,
                       const fs::path& workspace, const JobSpec& ind_job,
                       int64_t trace) {
  SPIDER_ASSIGN_OR_RETURN(RunOptions options, ParseRunOptions(ind_job.pairs));
  std::unique_ptr<Catalog> catalog;
  E2E_CHECK_OK(Traced(tracer, "storage.open", trace, [&]() -> Status {
    SPIDER_ASSIGN_OR_RETURN(catalog, OpenDiskCatalog(workspace));
    return Status::OK();
  }));
  CandidateSet candidates;
  E2E_CHECK_OK(Traced(tracer, "candgen.generate", trace, [&]() -> Status {
    SPIDER_ASSIGN_OR_RETURN(
        candidates, CandidateGenerator(options.generator).Generate(*catalog));
    return Status::OK();
  }));
  counters.Set("candgen.candidates",
               static_cast<double>(candidates.candidates.size()));
  counters.Set("candgen.pretest_pruned",
               static_cast<double>(candidates.total_pruned()));

  std::vector<AttributeRef> attributes;
  for (const IndCandidate& candidate : candidates.candidates) {
    attributes.push_back(candidate.dependent);
    attributes.push_back(candidate.referenced);
  }
  std::sort(attributes.begin(), attributes.end());
  attributes.erase(std::unique(attributes.begin(), attributes.end()),
                   attributes.end());
  ValueSetExtractorOptions extractor_options;
  extractor_options.persist_profile = true;
  ValueSetExtractor extractor(workspace, extractor_options);
  const int threads = ThreadPool::ResolveThreadCount(options.threads);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  E2E_CHECK_OK(Traced(tracer, "extsort.extract", trace, [&]() -> Status {
    SPIDER_ASSIGN_OR_RETURN(std::vector<SortedSetInfo> sets,
                            extractor.ExtractAll(*catalog, attributes,
                                                 pool.get()));
    int64_t set_bytes = 0;
    for (const SortedSetInfo& set : sets) {
      set_bytes += static_cast<int64_t>(fs::file_size(set.path));
    }
    counters.Set("extsort.set_bytes", static_cast<double>(set_bytes));
    return Status::OK();
  }));
  counters.Set("extsort.sets_extracted",
               static_cast<double>(extractor.sets_extracted()));
  counters.Set("extsort.sets_reused",
               static_cast<double>(extractor.sets_reused()));

  AlgorithmConfig config;
  config.extractor = &extractor;
  config.block_skip = options.block_skip;
  IndRunResult run;
  E2E_CHECK_OK(Traced(tracer, "merge.verify", trace, [&]() -> Status {
    SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<IndAlgorithm> algorithm,
                            AlgorithmRegistry::Global().Create(
                                options.approach, config));
    SPIDER_ASSIGN_OR_RETURN(run, algorithm->Run(*catalog,
                                                candidates.candidates));
    return Status::OK();
  }));
  counters.Set("merge.tuples_read", static_cast<double>(run.counters.tuples_read));
  counters.Set("merge.comparisons", static_cast<double>(run.counters.comparisons));
  counters.Set("merge.blocks_skipped",
               static_cast<double>(run.counters.blocks_skipped));
  counters.Set("merge.candidates_tested",
               static_cast<double>(run.counters.candidates_tested));
  counters.Set("merge.satisfied", static_cast<double>(run.satisfied.size()));

  // Records every verdict under both sides' statistics fingerprints (one
  // fingerprint per attribute, as the session computes them) and seals.
  ProfileStore* profile = extractor.profile();
  E2E_CHECK_OK(Traced(tracer, "profile.save", trace, [&]() -> Status {
    const std::set<Ind> satisfied(run.satisfied.begin(), run.satisfied.end());
    std::map<AttributeRef, uint64_t> fingerprints;
    for (const auto& [attribute, stats] : candidates.stats) {
      fingerprints.emplace(attribute, ProfileStore::StatsFingerprint(stats));
    }
    for (const IndCandidate& candidate : candidates.candidates) {
      ProfileVerdict verdict;
      verdict.satisfied =
          satisfied.count(Ind{candidate.dependent, candidate.referenced}) > 0;
      verdict.dependent_fingerprint = fingerprints.at(candidate.dependent);
      verdict.referenced_fingerprint = fingerprints.at(candidate.referenced);
      profile->PutVerdict(candidate.dependent, candidate.referenced, verdict);
    }
    return extractor.SaveProfile();
  }));
  counters.Set("profile.manifest_bytes",
               static_cast<double>(fs::file_size(profile->manifest_path())));
  return Status::OK();
}

// One session run over the workspace in a new session — what one CLI
// `profile` process does. The report is written to `report_path`.
Result<SessionReport> TraceSessionRun(Tracer& tracer, const std::string& name,
                                      const fs::path& workspace,
                                      const JobSpec& job,
                                      const fs::path& report_path,
                                      int64_t trace, double* report_seconds,
                                      int64_t* report_bytes) {
  SPIDER_ASSIGN_OR_RETURN(RunOptions options, ParseRunOptions(job.pairs));
  tracer.Begin(name, trace);
  std::unique_ptr<Catalog> catalog;
  Status opened = Traced(tracer, "storage.open", trace, [&]() -> Status {
    SPIDER_ASSIGN_OR_RETURN(catalog, OpenDiskCatalog(workspace));
    return Status::OK();
  });
  if (!opened.ok()) {
    tracer.End();
    return opened;
  }
  SessionOptions session_options;
  session_options.work_dir = workspace.string();
  session_options.persist_profile = true;
  SpiderSession session(*catalog, session_options);
  tracer.Begin("session.run", trace);
  Result<SessionReport> report = session.Run(options);
  tracer.End();
  if (report.ok()) {
    tracer.Begin("report.serialize", trace);
    const std::string json = ReportJson(*report, *catalog);
    *report_seconds = tracer.End();
    *report_bytes = static_cast<int64_t>(json.size());
    Status written = WriteText(report_path, json);
    if (!written.ok()) report = written;
  }
  tracer.End();
  return report;
}

Status Trace(const fs::path& work_dir, const fs::path& job_file,
             const fs::path& csv_dir, size_t per_round,
             const std::vector<fs::path>& deltas) {
  SPIDER_ASSIGN_OR_RETURN(std::vector<JobSpec> jobs, ReadJobFile(job_file));
  const JobSpec* ind_job = FindJob(jobs, "ind");
  if (ind_job == nullptr) return Status::NotFound("job file has no 'ind' job");
  Tracer tracer;
  Counters counters;
  fs::create_directories(work_dir);
  const fs::path workspace = work_dir / "ws";
  const fs::path layers_workspace = work_dir / "ws-layers";
  int64_t trace = 0;

  counters.Set("storage.csv_bytes", static_cast<double>(TreeBytes(csv_dir)));
  E2E_CHECK_OK(Traced(tracer, "storage.import", ++trace, [&] {
    return ImportInto(csv_dir, workspace, false);
  }));
  fs::copy(workspace, layers_workspace, fs::copy_options::recursive);
  E2E_CHECK_OK(TraceColdLayers(tracer, counters, layers_workspace, *ind_job,
                               ++trace));
  fs::remove_all(layers_workspace);

  double report_seconds = 0;
  int64_t report_bytes = 0;
  SPIDER_ASSIGN_OR_RETURN(
      SessionReport cold,
      TraceSessionRun(tracer, "profile.cold", workspace, *ind_job,
                      work_dir / "cold.json", ++trace, &report_seconds,
                      &report_bytes));
  counters.Set("session.partitions", cold.partitions);
  counters.Set("session.threads_used", cold.threads_used);

  // ProfileStore::Load on its own, over the profile the cold run sealed.
  ++trace;
  tracer.Begin("profile.load", trace);
  ProfileStore store(workspace);
  store.Load();
  tracer.End();

  E2E_CHECK_OK(TraceSessionRun(tracer, "profile.warm", workspace, *ind_job,
                               work_dir / "warm.json", ++trace,
                               &report_seconds, &report_bytes)
                   .status());
  counters.Set("report.serialize_s", report_seconds);
  counters.Set("report.bytes", static_cast<double>(report_bytes));

  if (per_round < 1 || deltas.size() % per_round != 0) {
    return Status::InvalidArgument("deltas do not split into rounds of " +
                                   std::to_string(per_round));
  }
  for (size_t round = 0; round < deltas.size() / per_round; ++round) {
    ++trace;
    for (size_t i = round * per_round; i < (round + 1) * per_round; ++i) {
      E2E_CHECK_OK(Traced(tracer, "storage.append", trace, [&] {
        return ImportInto(deltas[i], workspace, true);
      }));
    }
    SPIDER_ASSIGN_OR_RETURN(
        SessionReport reprofile,
        TraceSessionRun(tracer, "profile.reprofile", workspace, *ind_job,
                        work_dir / ("reprofile-" + std::to_string(round) +
                                    ".json"),
                        trace, &report_seconds, &report_bytes));
    counters.Add("profile.verdicts_reused",
                 static_cast<double>(reprofile.verdicts_reused));
    counters.Add("profile.candidates_revalidated",
                 static_cast<double>(reprofile.candidates_revalidated));
    counters.Add("profile.reprofile_candidates",
                 static_cast<double>(reprofile.candidates.candidates.size()));
  }

  // Every job type through one long-lived session, as spiderd runs them.
  {
    SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<Catalog> catalog,
                            OpenDiskCatalog(workspace));
    SessionOptions session_options;
    session_options.work_dir = workspace.string();
    session_options.persist_profile = true;
    SpiderSession session(*catalog, session_options);
    for (const JobSpec& job : jobs) {
      SPIDER_ASSIGN_OR_RETURN(RunOptions options, ParseRunOptions(job.pairs));
      tracer.Begin("job." + job.name, ++trace);
      Result<SessionReport> report = session.Run(options);
      tracer.End();
      if (!report.ok()) return report.status();
    }
  }

  counters.Set("storage.workspace_bytes",
               static_cast<double>(TreeBytes(workspace)));
  E2E_CHECK_OK(tracer.Write(work_dir / "spans.json"));
  std::cout << counters.ToJson() << "\n";
  return Status::OK();
}

int Exec(const char* stats_path, const char* stdout_path, char** argv) {
  const auto start = std::chrono::steady_clock::now();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("e2e_tool: fork");
    return 1;
  }
  if (pid == 0) {
    const int fd = open(stdout_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0 || dup2(fd, STDOUT_FILENO) < 0) _exit(126);
    close(fd);
    execvp(argv[0], argv);
    _exit(127);
  }
  int status = 0;
  struct rusage usage;
  if (wait4(pid, &status, 0, &usage) < 0) {
    std::perror("e2e_tool: wait4");
    return 1;
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : 128 + WTERMSIG(status);
  std::ofstream stats(stats_path);
  stats.precision(9);
  stats << seconds << " " << usage.ru_maxrss << " " << code << "\n";
  return stats ? 0 : 1;
}

int Usage() {
  std::cerr << "usage: e2e_tool gen <pdb|uniprot|scop> <out> <scale> <seed> "
               "[tables]\n"
               "       e2e_tool profile <workspace> <sets_dir> <out_json> "
               "<job_file> <job>\n"
               "       e2e_tool replay <work_dir> <out_jsonl> <job_file> "
               "<needs_file> <base_csv> [delta_csv ...]\n"
               "       e2e_tool trace <work_dir> <job_file> <csv_dir> "
               "<per_round> [delta_csv ...]\n"
               "       e2e_tool exec <stats_file> <stdout_file> <program> "
               "[args ...]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::vector<fs::path> rest;
  if (command == "gen" && (argc == 6 || argc == 7)) {
    const int tables = argc == 7 ? std::atoi(argv[6]) : 0;
    const Status status = Gen(argv[2], argv[3], std::atoll(argv[4]),
                              std::strtoull(argv[5], nullptr, 10), tables);
    return status.ok() ? 0 : Fail(status);
  }
  if (command == "profile" && argc == 7) {
    const Status status = Profile(argv[2], argv[3], argv[4], argv[5], argv[6]);
    return status.ok() ? 0 : Fail(status);
  }
  if (command == "replay" && argc >= 7) {
    for (int i = 6; i < argc; ++i) rest.emplace_back(argv[i]);
    const Status status = Replay(argv[2], argv[3], argv[4], argv[5], rest);
    return status.ok() ? 0 : Fail(status);
  }
  if (command == "exec" && argc >= 5) return Exec(argv[2], argv[3], argv + 4);
  if (command == "trace" && argc >= 6) {
    for (int i = 6; i < argc; ++i) rest.emplace_back(argv[i]);
    const Status status =
        Trace(argv[2], argv[3], argv[4], std::strtoull(argv[5], nullptr, 10),
              rest);
    return status.ok() ? 0 : Fail(status);
  }
  return Usage();
}
