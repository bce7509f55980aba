// Tests for the dsp-analyze static rule engine (src/analysis): the rule
// catalog, the workload lint, the schedule constraint check, the audit
// replay, the decision-line round trip, and an end-to-end run whose
// solver and preemption artifacts must analyze clean.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "analysis/analyzer.h"
#include "analysis/audit_replay.h"
#include "analysis/rules.h"
#include "analysis/schedule_check.h"
#include "analysis/workload_lint.h"
#include "core/dsp_system.h"
#include "core/ilp_model.h"
#include "core/preemption.h"
#include "obs/events.h"
#include "test_util.h"
#include "trace/workload.h"

namespace dsp {
namespace {

using analysis::Report;
using analysis::Severity;
using testing::make_chain_job;
using testing::make_independent_job;

std::vector<std::string> rules_of(const Report& report) {
  std::vector<std::string> out;
  for (const auto& d : report.diagnostics()) out.push_back(d.rule);
  return out;
}

bool has_rule(const Report& report, const std::string& id) {
  for (const auto& d : report.diagnostics())
    if (d.rule == id) return true;
  return false;
}

// ---------------------------------------------------------------------
// Rule catalog
// ---------------------------------------------------------------------

TEST(RuleCatalogTest, ContainsEveryDocumentedRule) {
  for (const char* id :
       {"W000", "W001", "W002", "W003", "W004", "W005", "S000", "S001", "S002",
        "S003", "S004", "S005", "P000", "P001", "P002", "P003", "P004"}) {
    const analysis::RuleInfo* rule = analysis::find_rule(id);
    ASSERT_NE(rule, nullptr) << id;
    EXPECT_STREQ(rule->id, id);
    EXPECT_NE(std::string(rule->name), "");
    // Seeded-violation fixtures rely on every rule failing the build.
    EXPECT_EQ(rule->severity, Severity::kError) << id;
  }
  EXPECT_EQ(analysis::find_rule("Z999"), nullptr);
}

TEST(RuleCatalogTest, IdsAreUnique) {
  std::vector<std::string> seen;
  for (const auto& rule : analysis::rule_catalog()) {
    for (const auto& other : seen) EXPECT_NE(other, rule.id);
    seen.emplace_back(rule.id);
  }
}

TEST(ReportTest, FilterDropsOtherRules) {
  Report report;
  report.set_rule_filter({"W003"});
  report.add("W001", "job 1", "cycle");
  report.add("W003", "job 1", "late");
  ASSERT_EQ(report.diagnostics().size(), 1u);
  EXPECT_EQ(report.diagnostics()[0].rule, "W003");
}

// ---------------------------------------------------------------------
// Workload lint (W rules)
// ---------------------------------------------------------------------

TEST(WorkloadLintTest, FeasibleWorkloadIsClean) {
  JobSet jobs;
  jobs.push_back(make_chain_job(1, 3, 1000.0, 0, 60 * kSecond));
  jobs.push_back(make_independent_job(2, 4, 500.0));
  Report report;
  analysis::WorkloadLintOptions options;
  const ClusterSpec cluster = ClusterSpec::uniform(2, 1000.0, 4.0, 2);
  options.cluster = &cluster;
  analysis::lint_workload(jobs, options, report);
  EXPECT_TRUE(report.empty()) << rules_of(report).size();
}

TEST(WorkloadLintTest, TightDeadlineFiresW003) {
  // 3 x 1000 MI at 1000 MIPS needs 3 s; the deadline allows 1 s.
  JobSet jobs;
  jobs.push_back(make_chain_job(1, 3, 1000.0, 0, 1 * kSecond));
  Report report;
  analysis::WorkloadLintOptions options;
  const ClusterSpec cluster = ClusterSpec::uniform(2, 1000.0, 4.0, 2);
  options.cluster = &cluster;
  analysis::lint_workload(jobs, options, report);
  EXPECT_TRUE(has_rule(report, "W003"));
  EXPECT_TRUE(report.has_errors());
}

TEST(WorkloadLintTest, OversizedDemandFiresW004) {
  JobSet jobs;
  Job job = make_independent_job(1, 2, 1000.0);
  job.task(1).demand = Resources{64.0, 512.0, 100.0, 10.0};
  jobs.push_back(std::move(job));
  Report report;
  analysis::WorkloadLintOptions options;
  const ClusterSpec cluster = ClusterSpec::uniform(2, 1000.0, 4.0, 2);
  options.cluster = &cluster;
  analysis::lint_workload(jobs, options, report);
  EXPECT_TRUE(has_rule(report, "W004"));
}

TEST(WorkloadLintTest, InvalidStructureFiresW005) {
  JobSet jobs;
  Job job = make_independent_job(1, 2, 1000.0);
  job.task(0).size_mi = -5.0;
  jobs.push_back(std::move(job));
  Report report;
  analysis::lint_workload(jobs, {}, report);
  EXPECT_TRUE(has_rule(report, "W005"));
}

TEST(WorkloadLintTest, GeneratedWorkloadIsClean) {
  // The synthetic generator must satisfy its own lint against the paper's
  // EC2 profile (deadlines are assigned from feasible critical paths).
  WorkloadConfig cfg;
  cfg.job_count = 20;
  const JobSet jobs = WorkloadGenerator(cfg, 42).generate();
  Report report;
  analysis::WorkloadLintOptions options;
  const ClusterSpec cluster = ClusterSpec::ec2(30);
  options.cluster = &cluster;
  analysis::lint_workload(jobs, options, report);
  for (const auto& d : report.diagnostics())
    ADD_FAILURE() << d.rule << " " << d.subject << ": " << d.message;
}

// ---------------------------------------------------------------------
// Schedule check (S rules)
// ---------------------------------------------------------------------

analysis::ScheduleDoc two_machine_doc() {
  analysis::ScheduleDoc doc;
  doc.problem.machine_rates = {1000.0, 1000.0};
  doc.problem.recovery_s = 0.3;
  IlpTask a;  // 10 s on either machine
  a.size_mi = 10000.0;
  IlpTask b = a;
  b.parents = {0};
  doc.problem.tasks = {a, b};
  doc.machine_of = {0, 1};
  doc.start_s = {0.0, 10.0};
  return doc;
}

TEST(ScheduleCheckTest, ValidScheduleIsClean) {
  analysis::ScheduleDoc doc = two_machine_doc();
  doc.makespan_s = 20.0;
  doc.has_makespan = true;
  Report report;
  analysis::check_schedule(doc, {}, report);
  EXPECT_TRUE(report.empty());
}

TEST(ScheduleCheckTest, PrecedenceViolationFiresS001) {
  analysis::ScheduleDoc doc = two_machine_doc();
  doc.start_s[1] = 4.0;  // parent completes at 10 s
  Report report;
  analysis::check_schedule(doc, {}, report);
  EXPECT_EQ(rules_of(report), std::vector<std::string>{"S001"});
}

TEST(ScheduleCheckTest, OverlapFiresS002) {
  analysis::ScheduleDoc doc = two_machine_doc();
  doc.problem.tasks[1].parents.clear();
  doc.machine_of[1] = 0;
  doc.start_s[1] = 5.0;
  Report report;
  analysis::check_schedule(doc, {}, report);
  EXPECT_EQ(rules_of(report), std::vector<std::string>{"S002"});
}

TEST(ScheduleCheckTest, MissedDeadlineFiresS003CountingPreemptionPadding) {
  analysis::ScheduleDoc doc = two_machine_doc();
  // Completion = 10 + 10 (exec) + 2 * 0.3 (recoveries) = 20.6 s.
  doc.problem.tasks[1].deadline_s = 20.5;
  doc.problem.tasks[1].n_preempt = 2;
  Report report;
  analysis::check_schedule(doc, {}, report);
  EXPECT_EQ(rules_of(report), std::vector<std::string>{"S003"});
  // Without the padding the deadline holds.
  doc.problem.tasks[1].n_preempt = 0;
  Report clean;
  analysis::check_schedule(doc, {}, clean);
  EXPECT_TRUE(clean.empty());
}

TEST(ScheduleCheckTest, BadPlacementFiresS004AndSkipsTimeRules) {
  analysis::ScheduleDoc doc = two_machine_doc();
  doc.machine_of[0] = 5;  // parent unplaced: S001 on the child must not fire
  Report report;
  analysis::check_schedule(doc, {}, report);
  EXPECT_EQ(rules_of(report), std::vector<std::string>{"S004"});
  doc = two_machine_doc();
  doc.start_s[0] = -1.0;
  Report negative;
  analysis::check_schedule(doc, {}, negative);
  EXPECT_EQ(rules_of(negative), std::vector<std::string>{"S004"});
}

TEST(ScheduleCheckTest, UnderstatedMakespanFiresS005) {
  analysis::ScheduleDoc doc = two_machine_doc();
  doc.makespan_s = 15.0;  // task 1 completes at 20 s
  doc.has_makespan = true;
  Report report;
  analysis::check_schedule(doc, {}, report);
  EXPECT_EQ(rules_of(report), std::vector<std::string>{"S005"});
}

TEST(ScheduleCheckTest, JsonRoundTripPreservesTheDocument) {
  analysis::ScheduleDoc doc = two_machine_doc();
  doc.problem.tasks[1].deadline_s = 25.0;
  doc.problem.tasks[1].n_preempt = 1;
  doc.makespan_s = 21.0;
  doc.has_makespan = true;
  std::stringstream buf;
  analysis::write_schedule_json(buf, doc);
  analysis::ScheduleDoc back;
  std::string error;
  ASSERT_TRUE(analysis::read_schedule_json(buf, back, &error)) << error;
  ASSERT_EQ(back.problem.tasks.size(), doc.problem.tasks.size());
  EXPECT_EQ(back.problem.machine_rates, doc.problem.machine_rates);
  EXPECT_DOUBLE_EQ(back.problem.recovery_s, doc.problem.recovery_s);
  EXPECT_EQ(back.machine_of, doc.machine_of);
  EXPECT_EQ(back.start_s, doc.start_s);
  EXPECT_TRUE(back.has_makespan);
  EXPECT_DOUBLE_EQ(back.makespan_s, doc.makespan_s);
  EXPECT_EQ(back.problem.tasks[1].parents, doc.problem.tasks[1].parents);
  EXPECT_EQ(back.problem.tasks[1].n_preempt, 1);
  EXPECT_DOUBLE_EQ(back.problem.tasks[1].deadline_s, 25.0);
  // An unset deadline must stay disabled (infinity), not become a number.
  EXPECT_FALSE(std::isfinite(back.problem.tasks[0].deadline_s));
}

TEST(ScheduleCheckTest, SolverOutputAnalyzesClean) {
  // The §III branch-and-bound solution must satisfy its own constraints.
  IlpProblem problem;
  problem.machine_rates = {1000.0, 800.0};
  IlpTask root;
  root.size_mi = 2000.0;
  IlpTask left, right;
  left.size_mi = 1500.0;
  left.parents = {0};
  right.size_mi = 1000.0;
  right.parents = {0};
  problem.tasks = {root, left, right};
  const IlpScheduleResult result = solve_ilp_schedule(problem);
  ASSERT_TRUE(result.ok());
  Report report;
  analysis::check_schedule(analysis::make_schedule_doc(problem, result), {},
                           report);
  for (const auto& d : report.diagnostics())
    ADD_FAILURE() << d.rule << " " << d.subject << ": " << d.message;
}

// ---------------------------------------------------------------------
// Audit replay (P rules)
// ---------------------------------------------------------------------

obs::PreemptDecision base_decision() {
  obs::PreemptDecision d;
  d.time = 1 * kSecond;
  d.node = 0;
  d.candidate = 0;
  d.victim = kInvalidGid;
  d.rho = 0.2;
  d.pp = true;
  return d;
}

TEST(AuditReplayTest, LegalTrailIsClean) {
  obs::PreemptDecision fire = base_decision();
  fire.victim = 1;
  fire.candidate_priority = 5.0;
  fire.victim_priority = 1.0;
  fire.normalized_gap = 0.8;
  fire.outcome = obs::PreemptOutcome::kFired;
  obs::PreemptDecision suppress = base_decision();
  suppress.time = 2 * kSecond;
  suppress.victim = 1;
  suppress.candidate_priority = 1.1;
  suppress.victim_priority = 1.0;
  suppress.normalized_gap = 0.1;
  suppress.outcome = obs::PreemptOutcome::kSuppressedPP;
  Report report;
  analysis::replay_audit({fire, suppress}, {}, report);
  EXPECT_TRUE(report.empty());
}

TEST(AuditReplayTest, TimeRegressionFiresP000) {
  obs::PreemptDecision a = base_decision();
  a.time = 5 * kSecond;
  obs::PreemptDecision b = base_decision();
  b.time = 4 * kSecond;
  Report report;
  analysis::replay_audit({a, b}, {}, report);
  EXPECT_EQ(rules_of(report), std::vector<std::string>{"P000"});
}

TEST(AuditReplayTest, UnknownGidFiresP000) {
  JobSet jobs;
  jobs.push_back(make_chain_job(1, 3, 1000.0));
  obs::PreemptDecision d = base_decision();
  d.candidate = 17;
  analysis::AuditReplayOptions options;
  options.workload = &jobs;
  Report report;
  analysis::replay_audit({d}, options, report);
  EXPECT_EQ(rules_of(report), std::vector<std::string>{"P000"});
}

TEST(AuditReplayTest, C1ViolationFiresP002OnlyForNonUrgentFires) {
  obs::PreemptDecision d = base_decision();
  d.victim = 1;
  d.candidate_priority = 1.0;
  d.victim_priority = 2.0;
  d.normalized_gap = 0.5;
  d.outcome = obs::PreemptOutcome::kFired;
  Report report;
  analysis::replay_audit({d}, {}, report);
  EXPECT_TRUE(has_rule(report, "P002"));
  // The urgent pass (t^a <= epsilon or t^w >= tau) ignores C1 by design.
  d.urgent = true;
  Report urgent;
  analysis::replay_audit({d}, {}, urgent);
  EXPECT_TRUE(urgent.empty());
}

TEST(AuditReplayTest, DependentCandidateFiresP003) {
  JobSet jobs;
  jobs.push_back(make_chain_job(1, 3, 1000.0));  // 0 -> 1 -> 2
  obs::PreemptDecision d = base_decision();
  d.candidate = 2;
  d.victim = 0;
  d.candidate_priority = 9.0;
  d.victim_priority = 1.0;
  d.normalized_gap = 0.9;
  d.outcome = obs::PreemptOutcome::kFired;
  analysis::AuditReplayOptions options;
  options.workload = &jobs;
  Report report;
  analysis::replay_audit({d}, options, report);
  EXPECT_EQ(rules_of(report), std::vector<std::string>{"P003"});
}

TEST(AuditReplayTest, AncestorWithLowPriorityFiresP001) {
  JobSet jobs;
  jobs.push_back(make_chain_job(1, 3, 1000.0));
  obs::PreemptDecision d = base_decision();
  d.candidate = 0;  // ancestor of the running victim 2
  d.victim = 2;
  d.candidate_priority = 1.0;  // Formula 12 demands it dominate 5.0
  d.victim_priority = 5.0;
  d.normalized_gap = 0.9;
  d.outcome = obs::PreemptOutcome::kFired;
  analysis::AuditReplayOptions options;
  options.workload = &jobs;
  Report report;
  analysis::replay_audit({d}, options, report);
  EXPECT_TRUE(has_rule(report, "P001"));
  // A dominating ancestor priority is legal.
  d.candidate_priority = 9.0;
  Report clean;
  analysis::replay_audit({d}, options, clean);
  EXPECT_TRUE(clean.empty());
}

TEST(AuditReplayTest, PpGateViolationsFireP004) {
  // Fired below rho although the PP filter was on.
  obs::PreemptDecision fired = base_decision();
  fired.victim = 1;
  fired.candidate_priority = 5.0;
  fired.victim_priority = 1.0;
  fired.normalized_gap = 0.05;
  fired.outcome = obs::PreemptOutcome::kFired;
  Report report;
  analysis::replay_audit({fired}, {}, report);
  EXPECT_EQ(rules_of(report), std::vector<std::string>{"P004"});
  // Suppressed above rho.
  obs::PreemptDecision sup = fired;
  sup.normalized_gap = 0.9;
  sup.outcome = obs::PreemptOutcome::kSuppressedPP;
  Report above;
  analysis::replay_audit({sup}, {}, above);
  EXPECT_EQ(rules_of(above), std::vector<std::string>{"P004"});
  // With PP disabled a sub-rho fire is legal (DSPW/oPP ablation trails).
  fired.pp = false;
  fired.normalized_gap = 0.0;
  Report disabled;
  analysis::replay_audit({fired}, {}, disabled);
  EXPECT_TRUE(disabled.empty());
}

// ---------------------------------------------------------------------
// Decision lines: the audit replay's input
// ---------------------------------------------------------------------

TEST(DecisionLineTest, RoundTripIsBitExact) {
  obs::PreemptDecision d = base_decision();
  d.victim = 3;
  d.candidate_priority = 1.0 / 3.0;  // needs 17 significant digits
  d.victim_priority = 0.1;
  d.normalized_gap = 2.0 / 7.0;
  d.rho = 1.0 / 9.0;
  d.outcome = obs::PreemptOutcome::kFired;
  obs::PreemptDecision n = base_decision();
  n.time = 2 * kSecond;
  n.urgent = true;
  n.pp = false;
  n.outcome = obs::PreemptOutcome::kNoVictim;

  std::string text;
  obs::EventLog::append_jsonl(obs::decision_event(d, 0), text);
  obs::EventLog::append_jsonl(obs::decision_event(n, 0), text);
  std::istringstream in(text);
  const obs::EventParseResult parsed = obs::read_event_log(in);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.events.size(), 2u);
  const obs::PreemptDecision back = obs::decision_of(parsed.events[0]);
  EXPECT_EQ(back.time, d.time);
  EXPECT_EQ(back.node, d.node);
  EXPECT_EQ(back.candidate, d.candidate);
  EXPECT_EQ(back.victim, d.victim);
  EXPECT_EQ(back.candidate_priority, d.candidate_priority);  // bit-exact
  EXPECT_EQ(back.victim_priority, d.victim_priority);
  EXPECT_EQ(back.normalized_gap, d.normalized_gap);
  EXPECT_EQ(back.rho, d.rho);
  EXPECT_FALSE(back.urgent);
  EXPECT_TRUE(back.pp);
  EXPECT_EQ(back.outcome, obs::PreemptOutcome::kFired);
  const obs::PreemptDecision none = obs::decision_of(parsed.events[1]);
  EXPECT_EQ(none.victim, kInvalidGid);  // -1 maps back
  EXPECT_TRUE(none.urgent);
  EXPECT_FALSE(none.pp);
  EXPECT_EQ(none.outcome, obs::PreemptOutcome::kNoVictim);
}

// ---------------------------------------------------------------------
// End to end: a DSP engine run's decision stream analyzes clean
// ---------------------------------------------------------------------

TEST(AnalysisEndToEndTest, EngineDecisionStreamReplaysClean) {
  WorkloadConfig cfg;
  cfg.job_count = 8;
  cfg.task_scale = 0.01;
  cfg.cpu_max = 2.0;
  cfg.mem_max = 1.8;
  cfg.min_arrival_rate = 30.0;
  cfg.max_arrival_rate = 40.0;
  const JobSet jobs = WorkloadGenerator(cfg, 101).generate();

  DspPreemption policy;
  DspScheduler sched;
  EngineParams params;
  params.period = 1 * kSecond;
  params.epoch = 500 * kMillisecond;
  Engine engine(ClusterSpec::uniform(2, 1800.0, 2.0, 2), jobs, sched, &policy,
                params);
  const std::string path = ::testing::TempDir() + "analysis_e2e.jsonl";
  obs::EventLog log;
  ASSERT_TRUE(log.open_sink(path));
  engine.set_event_log(&log);
  engine.run();
  log.close_sink();

  // Through the JSONL artifact, exactly as tools/dsp_analyze consumes it.
  const obs::EventParseResult parsed = obs::read_event_log(path);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  std::vector<obs::PreemptDecision> decisions;
  for (const obs::Event& e : parsed.events)
    if (e.kind == obs::EventKind::kPreemptDecision)
      decisions.push_back(obs::decision_of(e));
  ASSERT_GT(decisions.size(), 0u);

  analysis::AuditReplayOptions options;
  options.workload = &jobs;
  Report report;
  analysis::replay_audit(decisions, options, report);
  for (const auto& d : report.diagnostics())
    ADD_FAILURE() << d.rule << " " << d.subject << ": " << d.message;
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Cluster spec parsing (CLI surface)
// ---------------------------------------------------------------------

TEST(ClusterSpecParseTest, AcceptsTheThreeProfiles) {
  ClusterSpec spec;
  std::string error;
  ASSERT_TRUE(analysis::parse_cluster_spec("ec2:12", spec, &error)) << error;
  EXPECT_EQ(spec.size(), 12u);
  ASSERT_TRUE(analysis::parse_cluster_spec("real:50", spec, &error)) << error;
  EXPECT_EQ(spec.size(), 50u);
  ASSERT_TRUE(analysis::parse_cluster_spec("uniform:4:1000:8:2", spec, &error))
      << error;
  EXPECT_EQ(spec.size(), 4u);
  EXPECT_EQ(spec.total_slots(), 8);
}

TEST(ClusterSpecParseTest, RejectsMalformedSpecs) {
  ClusterSpec spec;
  std::string error;
  EXPECT_FALSE(analysis::parse_cluster_spec("ec2", spec, &error));
  EXPECT_FALSE(analysis::parse_cluster_spec("ec2:zero", spec, &error));
  EXPECT_FALSE(analysis::parse_cluster_spec("moon:4", spec, &error));
  EXPECT_FALSE(analysis::parse_cluster_spec("uniform:4:1000", spec, &error));
  EXPECT_NE(error, "");
  // Fractional counts, non-finite numbers, an int-overflowing slot count
  // and a cluster wider than ClusterSpec::kMaxNodes are refused with a
  // message, never truncated or thrown.
  for (const char* text :
       {"uniform:2.7:nan:4:2.9", "uniform:2:inf:4:2", "uniform:3:2660:4:1e12",
        "uniform:3:2660:4:4294967297", "uniform:2:2660:1e308:2",
        "ec2:40000", "real:0", "ec2:-3"}) {
    error.clear();
    bool parsed = true;
    EXPECT_NO_THROW(parsed = analysis::parse_cluster_spec(text, spec, &error))
        << text;
    EXPECT_FALSE(parsed) << text;
    EXPECT_NE(error, "") << text;
  }
}

}  // namespace
}  // namespace dsp
