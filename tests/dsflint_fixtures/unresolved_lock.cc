// dsflint fixture: two classes declare a mutex member named `mu`, so an
// acquisition through `a.mu` names no single lock class and would drop
// every lock-order edge through it. Never compiled — lint fodder only.

namespace fixture {

class Journal {
 public:
  Mutex mu;
};

class Index {
 public:
  Mutex mu;
};

void Append(Journal& a) {
  MutexLock hold(a.mu);  // SEEDED VIOLATION: lock-order (line 18)
}

}  // namespace fixture
