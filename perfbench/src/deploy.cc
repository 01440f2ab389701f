#include "deploy.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "core/io.h"
#include "data/tpch.h"
#include "data/tpch_queries.h"
#include "rel/sql/planner.h"
#include "verify/verify.h"

namespace perfbench {

using cobra::util::Result;
using cobra::util::Status;
namespace core = cobra::core;
namespace serve = cobra::serve;

/// Orders per leaf of the abstraction tree the compressor cuts.
constexpr std::size_t kOrderBucket = 128;

SnapshotSpec SmallSnapshot() {
  SnapshotSpec spec;
  spec.scale_factor = 0.01;
  spec.bound_pct = 60;
  spec.sql =
      "SELECT l_returnflag, SUM(l_extendedprice * l_discount) AS revenue "
      "FROM lineitem "
      "WHERE l_shipdate >= 19940101 AND l_shipdate < 19950101 "
      "AND l_discount >= 0.05 AND l_discount <= 0.07 AND l_quantity < 24 "
      "GROUP BY l_returnflag";
  return spec;
}

SnapshotSpec LargeSnapshot() {
  SnapshotSpec spec;
  spec.scale_factor = 0.05;
  spec.bound_pct = 10;
  spec.sql =
      "SELECT l_returnflag, l_linestatus, "
      "SUM(l_extendedprice * l_discount) AS revenue "
      "FROM lineitem GROUP BY l_returnflag, l_linestatus";
  return spec;
}

Result<std::shared_ptr<const core::CompiledSession>> LoadSnapshotBytes(
    const std::string& bytes, Tracer& tracer, LoadTimes* times) {
  Result<core::SnapshotPackage> package = Status::Internal("not parsed");
  times->parse = tracer.Time("core.io.parse", [&] {
    package = core::ParseSnapshot(bytes, "perfbench");
  });
  if (!package.ok()) return package.status();
  bool verified = false;
  std::string findings;
  times->verify = tracer.Time("verify.snapshot", [&] {
    cobra::verify::VerifyReport report = cobra::verify::VerifySnapshot(*package);
    verified = report.ok();
    if (!verified) findings = report.ToString();
  });
  if (!verified) return Status::Internal("snapshot rejected: " + findings);
  Result<std::shared_ptr<const core::CompiledSession>> session =
      Status::Internal("not loaded");
  times->from_snapshot = tracer.Time("core.io.from_snapshot", [&] {
    session = core::CompiledSession::FromSnapshot(*package);
  });
  return session;
}

bool MatchesOracle(core::Session& session, const core::Scenario& scenario,
                   const double* full, const double* compressed,
                   std::size_t groups, std::string* why) {
  Status status = session.ResetMetaValues();
  for (const core::Scenario::Delta& delta : scenario.deltas) {
    if (status.ok()) status = session.SetMetaValue(delta.var, delta.value);
  }
  Result<core::AssignReport> want = Status::Internal("not run");
  if (status.ok()) want = session.Assign(1);
  session.ResetMetaValues().CheckOK();
  if (!want.ok()) {
    *why = want.status().ToString();
    return false;
  }
  bool same = want->delta.rows.size() == groups;
  for (std::size_t g = 0; same && g < groups; ++g) {
    same = SameBits(want->delta.rows[g].full, full[g]) &&
           SameBits(want->delta.rows[g].compressed, compressed[g]);
  }
  if (!same) *why = "differs from Session::Assign";
  return same;
}

namespace {

/// Bytes of one compiled program: what one full scan reads.
double ProgramBytes(const cobra::prov::EvalProgram& program) {
  return static_cast<double>(program.poly_starts().size() * 4 +
                             program.term_starts().size() * 4 +
                             program.coeffs().size() * 8 +
                             program.factors().size() * 4);
}

}  // namespace

SweepWork ComputeSweepWork(const core::CompiledSession& session,
                           core::BatchOptions::Sweep engine,
                           std::size_t lanes, double scenarios) {
  const cobra::prov::EvalProgram& full = session.sweep_full_program();
  const cobra::prov::EvalProgram& compressed = session.compressed_program();
  const double scans = engine == core::BatchOptions::Sweep::kBlocked
                           ? std::ceil(scenarios / static_cast<double>(lanes))
                           : scenarios;
  SweepWork work;
  work.terms_lanes =
      scenarios * static_cast<double>(full.NumTerms() + compressed.NumTerms());
  work.bytes = scans * (ProgramBytes(full) + ProgramBytes(compressed));
  return work;
}

Result<double> Republish(Deployment* deployment, Tracer& tracer) {
  LoadTimes load;
  Result<std::shared_ptr<const core::CompiledSession>> loaded =
      Status::Internal("not loaded");
  const double took = tracer.Time("serve.server.swap", [&] {
    loaded = LoadSnapshotBytes(deployment->snapshot_bytes, tracer, &load);
    if (loaded.ok()) deployment->server->Swap(*loaded, "perfbench");
  });
  if (!loaded.ok()) return loaded.status();
  deployment->served = *loaded;
  return took;
}

Status RestartServer(Deployment* deployment, int server_workers) {
  deployment->server.reset();
  serve::ServerOptions options;
  options.num_workers = server_workers;
  deployment->server = std::make_unique<serve::CobraServer>(options);
  deployment->server->set_log([](const std::string&) {});
  deployment->server->Swap(deployment->served, "perfbench");
  return deployment->server->Start();
}

Result<Deployment> Deploy(const SnapshotSpec& spec, int server_workers,
                          Tracer& tracer, SetupTimes* times) {
  Deployment out;
  Status status;
  const double start = Now();
  tracer.Time("setup", [&] {
    cobra::data::TpchConfig config;
    config.scale_factor = spec.scale_factor;
    std::unique_ptr<cobra::rel::Database> db;
    times->generate = tracer.Time("data.generate", [&] {
      db = std::make_unique<cobra::rel::Database>(
          cobra::data::GenerateTpch(config));
      status = cobra::data::InstrumentTpchByOrder(db.get());
    });
    if (!status.ok()) return;

    cobra::prov::PolySet provenance;
    times->sql = tracer.Time("rel.sql", [&] {
      Result<cobra::rel::sql::QueryResult> result =
          cobra::rel::sql::RunSql(*db, spec.sql);
      if (!result.ok()) {
        status = result.status();
        return;
      }
      provenance = result->Provenance(0);
    });
    if (!status.ok()) return;

    out.session = std::make_unique<core::Session>(db->var_pool());
    times->compress = tracer.Time("core.compress", [&] {
      out.session->LoadPolynomials(std::move(provenance));
      status = out.session->SetTreeText(
          cobra::data::OrderBucketTreeText(config.NumOrders(), kOrderBucket));
      if (!status.ok()) return;
      out.session->SetBound(std::max<std::size_t>(
          1, out.session->full().TotalMonomials() * spec.bound_pct / 100));
      Result<core::CompressionReport> report =
          out.session->Compress(core::Algorithm::kOptimalDp);
      if (!report.ok()) status = report.status();
    });
    if (!status.ok()) return;
    db.reset();

    std::shared_ptr<const core::CompiledSession> origin;
    times->compile = tracer.Time("core.snapshot.compile", [&] {
      Result<std::shared_ptr<const core::CompiledSession>> snapshot =
          out.session->Snapshot();
      if (snapshot.ok()) {
        origin = *snapshot;
      } else {
        status = snapshot.status();
      }
    });
    if (!status.ok()) return;

    times->serialize = tracer.Time("core.io.serialize", [&] {
      out.snapshot_bytes = core::SerializeSnapshot(core::MakeSnapshot(*origin));
    });

    LoadTimes load;
    Result<std::shared_ptr<const core::CompiledSession>> served =
        LoadSnapshotBytes(out.snapshot_bytes, tracer, &load);
    times->parse = load.parse;
    times->verify = load.verify;
    times->from_snapshot = load.from_snapshot;
    if (!served.ok()) {
      status = served.status();
      return;
    }
    out.served = *served;

    times->server_start = tracer.Time("serve.server.start", [&] {
      status = RestartServer(&out, server_workers);
    });
  });
  times->total = Now() - start;
  if (!status.ok()) return status;

  // Weight of a variable: the factors it occupies in the two programs a
  // sweep scans, i.e. how much work overriding it costs.
  std::map<cobra::prov::VarId, std::size_t> weight;
  for (cobra::prov::VarId id : out.served->compressed_program().factors()) {
    ++weight[id];
  }
  for (cobra::prov::VarId id : out.served->sweep_full_program().factors()) {
    auto it = weight.find(id);
    if (it != weight.end()) ++it->second;
  }
  std::vector<std::pair<std::size_t, cobra::prov::VarId>> order;
  for (const auto& [id, count] : weight) order.emplace_back(count, id);
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  for (const auto& [count, id] : order) {
    out.variables.push_back(out.served->pool().Name(id));
  }
  if (out.variables.size() < 16) {
    return Status::Internal("compressed provenance has fewer than 16 variables");
  }
  return out;
}

}  // namespace perfbench
