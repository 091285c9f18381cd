#include "server/client.h"

#include <utility>

namespace lstore {

using wire::Op;

Status Client::AwaitMultiRead(RequestId id, size_t num_keys,
                              std::vector<std::vector<Value>>* rows,
                              std::vector<Status>* statuses) {
  wire::MultiReadResponse resp;
  LSTORE_RETURN_IF_ERROR(Await<Op::kMultiRead>(id, &resp));
  if (resp.codes.size() != num_keys) {
    return Status::Corruption("malformed multiread response");
  }
  *rows = std::move(resp.rows);
  if (statuses != nullptr) {
    statuses->clear();
    for (Status::Code code : resp.codes) {
      statuses->push_back(Status::FromCode(code));
    }
  }
  return Status::OK();
}

Status Client::AwaitAggregate(RequestId id, uint64_t* value,
                              uint64_t* visible_rows) {
  wire::QueryResponse resp;  // holds the Aggregate shape
  LSTORE_RETURN_IF_ERROR(Await<Op::kQuery>(id, &resp));
  const wire::Aggregate& a = std::get<wire::Aggregate>(resp);
  if (value != nullptr) *value = a.value;
  if (visible_rows != nullptr) *visible_rows = a.rows;
  return Status::OK();
}

Status Client::Keys(const std::string& table, const QuerySpec& spec,
                    std::vector<Value>* keys) {
  wire::QueryResponse resp = wire::Row{};  // the kKeys shape
  LSTORE_RETURN_IF_ERROR(
      Call<Op::kQuery>({table, wire::QueryKind::kKeys, 0, spec}, &resp));
  *keys = std::move(std::get<wire::Row>(resp));
  return Status::OK();
}

Status Client::Health(HealthReport* report) {
  HealthReport r;
  LSTORE_RETURN_IF_ERROR(Call<Op::kHealth>({}, &r));
  CountVerdicts(&r);
  *report = std::move(r);
  return Status::OK();
}

}  // namespace lstore
