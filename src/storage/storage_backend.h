// StorageBackend: the pluggable durable device behind PageFile.
//
// Without a backend, PageFile simulates the device with an in-memory
// page vector (the paper's cost model). Attaching a backend makes it the
// device and the source of truth: PageFile then keeps no page vector,
// and every page access — accounted or not — is one call here. The pages
// in RAM are the callers' own (buffer-pool frames, scratch), so the only
// main-memory structure of the dense file is its calibrator, as in
// Willard's model. The contract is what converts the repo's
// crash-ordering proofs from simulation into durable-storage evidence:
//
//   - every write reaches WritePage before PageFile returns, in exactly
//     the order the crash-safe maintenance issued it (docs/FAULTS.md:
//     DEST-before-SOURCE, directional block rewrites). A process kill
//     therefore leaves the device holding a prefix of the issued writes;
//   - SyncBarrier() — fdatasync for a file backend — is called at the
//     durability points (the EndCommand flush boundary, the end of a
//     staged drain window, bulk load, repair) and, unpooled only,
//     between SHIFT's DEST and SOURCE writes and between
//     redistribution's pack and spread passes, where it orders device
//     writes against power loss (docs/STORAGE.md). A pooled command
//     therefore pays one barrier, at its end;
//   - ReadPage loads a page image, verifying integrity (CRC32C for the
//     file backend); a torn or corrupt page surfaces as a typed kIoError
//     that CheckAndRepair quarantines.
//
// FileBackend (storage/file_backend.h) is the implementation: a real
// index/data file pair with page-aligned pread/pwrite and fdatasync.
// Fault injection composes unchanged: the FaultPolicy is consulted by
// PageFile *before* the backend is touched, so an injected write fault
// suppresses the persistent write exactly as it suppresses the
// simulated one.

#ifndef DSF_STORAGE_STORAGE_BACKEND_H_
#define DSF_STORAGE_STORAGE_BACKEND_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "storage/page.h"
#include "storage/record.h"
#include "util/status.h"

namespace dsf {

class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  // Geometry the backend was created with (PageFile::AttachBackend
  // rejects a mismatch against the live file).
  virtual int64_t num_pages() const = 0;
  virtual int64_t page_capacity() const = 0;

  // Durably records `page` as the content of `address` (1-based). The
  // write must be atomic at page granularity from the caller's
  // perspective: after a crash the slot holds either the old image or
  // the new one, or fails ReadPage with kIoError (a torn write) — never
  // silently mixes the two. Writers are externally serialized.
  virtual Status WritePage(Address address, const Page& page) = 0;

  // Loads the device image of `address` into *out (replacing its
  // contents; *out keeps its capacity, which must be page_capacity()).
  // Integrity-checked: a corrupt slot returns kIoError and leaves *out
  // empty. Must be safe to call concurrently (shared-lock readers).
  virtual Status ReadPage(Address address, Page* out) = 0;

  // Persistence barrier: on return, every WritePage issued before the
  // call is durable. fdatasync for the file backend.
  virtual Status SyncBarrier() = 0;

  virtual std::string Name() const = 0;
};

// Deferred backend construction for option structs: called once with
// the file's physical geometry when the owning file is built. Lets one
// Options value describe "a file pair under this directory" without
// knowing M or the page capacity up front, and gives sharded files a
// natural seam for per-shard directories.
using StorageBackendFactory =
    std::function<StatusOr<std::unique_ptr<StorageBackend>>(
        int64_t num_pages, int64_t page_capacity)>;

}  // namespace dsf

#endif  // DSF_STORAGE_STORAGE_BACKEND_H_
