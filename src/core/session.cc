#include "core/session.h"

#include <algorithm>

#include "core/database.h"

namespace ghostdb::core {

Session::Session(GhostDB* db, int32_t id, std::string name,
                 std::vector<device::RamPartitionId> partitions)
    : db_(db), id_(id), name_(std::move(name)) {
  bindings_.reserve(partitions.size());
  for (device::RamPartitionId partition : partitions) {
    bindings_.push_back({id_, name_, partition});
  }
}

Session::~Session() { db_->CloseSession(this); }

Result<exec::QueryResult> Session::Query(const std::string& sql) {
  // Binding is pure CPU over the (const-after-Build) schema, so sessions
  // bind on their own threads; only the arbitrated part inside RunSelect
  // serializes.
  GHOSTDB_ASSIGN_OR_RETURN(sql::BoundQuery query, db_->BindSelect(sql));
  return Run(query, nullptr);
}

Result<exec::QueryResult> Session::Run(const sql::BoundQuery& query,
                                       const plan::PlanChoice* pinned) {
  Result<exec::QueryResult> result = db_->RunSelect(query, pinned, *this);
  std::lock_guard<std::mutex> lk(mu_);
  executed_ += 1;
  if (result.ok()) totals_.Accumulate(result->metrics);
  return result;
}

void Session::Enqueue(std::string sql) {
  std::lock_guard<std::mutex> lk(mu_);
  Queued q;
  q.sql = std::move(sql);
  queue_.push_back(std::move(q));
}

size_t Session::pending() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queue_.size();
}

std::vector<Result<exec::QueryResult>> Session::TakeResults() {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<Result<exec::QueryResult>> out = std::move(results_);
  results_.clear();
  return out;
}

exec::QueryMetrics Session::metrics() const {
  std::lock_guard<std::mutex> lk(mu_);
  return totals_;
}

uint64_t Session::queries_executed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return executed_;
}

bool Session::BindHead(uint32_t* weight) {
  std::lock_guard<std::mutex> lk(mu_);
  while (!queue_.empty()) {
    Queued& head = queue_.front();
    if (!head.bound.has_value()) {
      Result<sql::BoundQuery> bound = db_->BindSelect(head.sql);
      if (!bound.ok()) {
        // A statement that cannot bind never reaches the device; its error
        // takes the statement's slot on the result surface.
        results_.emplace_back(bound.status());
        queue_.pop_front();
        continue;
      }
      head.weight = DeclaredShapeWeight(*bound);
      head.bound = std::move(*bound);
    }
    *weight = head.weight;
    return true;
  }
  return false;
}

void Session::RunHead() {
  Queued head;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (queue_.empty() || !queue_.front().bound.has_value()) return;
    head = std::move(queue_.front());
    queue_.pop_front();
  }
  Result<exec::QueryResult> result = Run(*head.bound, nullptr);
  std::lock_guard<std::mutex> lk(mu_);
  results_.push_back(std::move(result));
}

}  // namespace ghostdb::core
