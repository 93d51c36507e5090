// dsflint fixture: how a call finds its callee. Table::size() takes
// table_mu and calls Log::Append under it: the edge table_mu -> log_mu.
// Under log_mu, Append calls entries_.size(), a standard container
// member called through `.`, and size(), its own Log::size(). Resolved
// by bare name, either would reach Table::size() and close a false
// cycle. Log::Sync calls table_->Lookup() under log_mu, which does
// close one; it is reported at the Append call. Never compiled — lint
// fodder only.

namespace fixture {

class Table;

class Log {
 public:
  void Append(long v) {
    MutexLock lock(log_mu);
    if (entries_.size() < 8 && size() < 8) entries_.push_back(v);
  }
  long size() { return 0; }
  void Sync();

  Mutex log_mu;

 private:
  std::vector<long> entries_;
  Table* table_;
};

class Table {
 public:
  long size() {
    MutexLock lock(table_mu);
    log_.Append(1);  // SEEDED VIOLATION: lock-order cycle (line 34)
    return 0;
  }
  long Lookup() {
    MutexLock lock(table_mu);
    return 0;
  }

  Mutex table_mu;

 private:
  Log log_;
};

void Log::Sync() {
  MutexLock lock(log_mu);
  table_->Lookup();
}

}  // namespace fixture
