// Point-in-time recovery walkthrough: log archiving turns checkpoint
// truncation into archival, so the database can be rewound to ANY
// archived commit point — here, "the moment before the bad deploy
// started double-charging accounts".
//
// The demo opens a durable database with archiving on, runs transfers
// between an accounts table and an audit ledger (cross-table
// transactions: both tables move together or not at all), checkpoints
// twice so the log segments each closes move into <dir>/archive, then
// restores the pre-incident state and shows the two timelines side by
// side.
//
// Build & run:  ./build/examples/pitr_walkthrough

#include <cstdio>
#include <filesystem>

#include "core/database.h"
#include "core/query.h"
#include "core/table.h"

using namespace lstore;

namespace {

Value Balance(Table* accounts, Value id) {
  std::vector<Value> row;
  if (!accounts->ReadAsOf(id, accounts->Now(), 0b10, &row).ok()) return 0;
  return row[1];
}

void Transfer(Database* db, Table* accounts, Table* audit, Value from,
              Value to, Value amount, Value audit_id) {
  Txn txn = db->Begin();
  std::vector<Value> row;
  (void)accounts->Read(txn, from, 0b10, &row);
  (void)accounts->Update(txn, from, 0b10, {0, row[1] - amount});
  (void)accounts->Read(txn, to, 0b10, &row);
  (void)accounts->Update(txn, to, 0b10, {0, row[1] + amount});
  (void)audit->Insert(txn, {audit_id, from, to, amount});
  Status s = txn.Commit();
  if (!s.ok()) std::printf("transfer aborted: %s\n", s.ToString().c_str());
}

}  // namespace

int main() {
  const std::string dir =
      std::filesystem::temp_directory_path().string() + "/lstore_pitr_demo";
  std::filesystem::remove_all(dir);

  // --- 1. A durable database with log archiving on ----------------------
  DurabilityOptions opts;
  opts.archive_enabled = true;  // retired log segments move, not deleted
  std::unique_ptr<Database> db;
  if (!Database::Open(dir, opts, &db).ok()) return 1;
  (void)db->CreateTable("accounts", Schema({"id", "balance"}),
                        TableConfig{});
  (void)db->CreateTable("audit", Schema({"id", "from", "to", "amount"}),
                        TableConfig{});
  Table* accounts = db->GetTable("accounts");
  Table* audit = db->GetTable("audit");
  {
    Txn txn = db->Begin();
    for (Value id = 0; id < 4; ++id) (void)accounts->Insert(txn, {id, 1000});
    txn.Commit();
  }

  // --- 2. Healthy traffic, checkpointed (log segment -> archive) --------
  for (Value i = 0; i < 8; ++i) {
    Transfer(db.get(), accounts, audit, i % 4, (i + 1) % 4, 10 + i, i);
  }
  (void)db->Checkpoint();  // moves <dir>/archive/*.arc + MANIFEST.1
  std::printf("healthy: balances %lld %lld %lld %lld\n",
              (long long)Balance(accounts, 0), (long long)Balance(accounts, 1),
              (long long)Balance(accounts, 2), (long long)Balance(accounts, 3));

  // The restore point: everything committed up to HERE is the state we
  // will want back. Now() - 1 is the newest commit time.
  Timestamp before_incident = db->Now() - 1;

  // --- 3. The incident: a bad deploy drains account 0 -------------------
  for (Value i = 8; i < 16; ++i) {
    Transfer(db.get(), accounts, audit, 0, 1 + (i % 3), /*amount=*/100, i);
  }
  (void)db->Checkpoint();  // a second cycle: archives now span history
  std::printf("incident: balances %lld %lld %lld %lld\n",
              (long long)Balance(accounts, 0), (long long)Balance(accounts, 1),
              (long long)Balance(accounts, 2), (long long)Balance(accounts, 3));
  db.reset();  // stop the writer before restoring from its directory

  // --- 4. Rewind: restore the pre-incident commit point -----------------
  // RestoreToPoint stitches the archived segments and the live log
  // into one LSN-continuous stream, replays it with its outcomes
  // truncated at the point, and lands on the exact cross-table-
  // consistent state: every transfer is in BOTH tables or in neither.
  std::unique_ptr<Database> rewound;
  Status s = Database::RestoreToPoint(
      dir, RestorePoint::AtTime(before_incident), &rewound);
  if (!s.ok()) {
    std::printf("restore failed: %s\n", s.ToString().c_str());
    return 1;
  }
  Table* racc = rewound->GetTable("accounts");
  Table* raud = rewound->GetTable("audit");
  std::printf("rewound: balances %lld %lld %lld %lld\n",
              (long long)Balance(racc, 0), (long long)Balance(racc, 1),
              (long long)Balance(racc, 2), (long long)Balance(racc, 3));
  uint64_t audit_rows = 0;
  (void)raud->NewQuery().Count(&audit_rows);
  std::printf("rewound: audit has %llu entries (the 8 healthy transfers)\n",
              (unsigned long long)audit_rows);

  // Sanity for the demo: total money is conserved in every timeline,
  // and the rewound audit ledger matches the rewound balances.
  Value total = Balance(racc, 0) + Balance(racc, 1) + Balance(racc, 2) +
                Balance(racc, 3);
  if (total != 4000 || audit_rows != 8) {
    std::printf("UNEXPECTED state after restore\n");
    return 1;
  }
  std::printf("ok: restore landed on the exact pre-incident state\n");
  std::filesystem::remove_all(dir);
  return 0;
}
