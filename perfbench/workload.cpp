// perfbench workload binary -- one closed-loop serving workload against the public
// API of dbll_runtime / dbll_lift.
//
//   perfbench_workload --inputs FILE --seconds S --trace 0|1 --cache-dir DIR
//                    [--trace-out FILE]
//
// FILE (written by perfbench/inputs.py) names the workload and holds every
// input: the specialization keys (stencil descriptors, SpMV row counts and
// band offsets), the client count, the per-client step schedule and the
// set-up repeat count. The binary never sees the seed. The client threads
// (one or two) walk the schedule in lockstep (a step is one job per client,
// or one shared key both clients request at once); every job's output is
// compared with the natively built generic kernel on the same inputs. Once
// every job of a step has ended, each pass job times a second, steady-state
// pass of its kernel.
//
// With --trace 1 spans are recorded around this binary's calls into each
// module on every other step of the window (the untraced steps in between
// give the tracing overhead), then the per-layer replays run: BuildCfg,
// AuditFunction, Lift+Specialize, Optimize, Compile, Tier1Rewrite,
// ObjectStore::Load and LoadCachedObject on the window's own keys. A
// persisting workload then restarts its service over the window's store and
// requests the newest keys again, so the warm path (shm ring, disk rung,
// install) is measured on the same run.
//
// The last stdout line is one JSON object: workload, attempted/failed
// counts, host identity and every metric as [value, unit, samples].
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <utility>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dbll/analysis/audit.h"
#include "dbll/dbrew/rewriter.h"
#include "dbll/lift/lifter.h"
#include "dbll/obs/obs.h"
#include "dbll/runtime/compile_service.h"
#include "dbll/runtime/fallback.h"
#include "dbll/runtime/object_store.h"
#include "dbll/spmv/spmv.h"
#include "dbll/stencil/stencil.h"
#include "dbll/support/cpu_features.h"
#include "dbll/x86/cfg.h"
#include "trace.h"

extern char** environ;

namespace perfbench {
namespace {

using namespace dbll;
using dbll::runtime::CacheStats;
using dbll::runtime::CompileRequest;
using dbll::runtime::CompileService;
using dbll::runtime::FunctionHandle;
using dbll::runtime::Tier;
using dbll::stencil::FlatStencil;
using dbll::stencil::SortedStencil;
using Span = Tracer::Scope;

constexpr long kN = stencil::kMatrixSize;  // 649
constexpr long kInner = kN - 2;            // 647 computed columns / rows
constexpr long kElemRows = 64;             // element-kernel pass: 64 rows
constexpr long kSpmvPassRows = 65536;      // SpMV pass: ~64k output rows
// Steady-state passes run on an L2-resident band, rows 1..64 (the element
// pass's rows): generated and native code are then compared on compute, not
// on the host's cache and memory contention, which swings by up to 1.5x.
constexpr long kBandRows = 64;
constexpr long kBandSweeps = 10;           // line kernels: 10 sweeps of the band
constexpr std::uint64_t kJobTimeoutNs = 5'000'000'000ull;
// Keys the warm restart requests again: 1.5x the default 64 shm-ring slots,
// so the ring serves the newest and the disk rung the rest.
constexpr std::size_t kRestartKeys = 96;
constexpr std::uint64_t kRssMarkSteps = 50;

using LineFn = void (*)(const void*, const double*, double*, long);
using SpmvFn = void (*)(const spmv::CsrMatrix*, const double*, double*, long);

// --- inputs ------------------------------------------------------------------

enum class Kind { kLineFlat = 0, kLineSorted, kElemFlat, kSpmv };
constexpr int kKinds = 4;

/// One specialization key. Heap-allocated and never moved: the request's
/// const-memory fixation records the descriptor's address.
struct Key {
  Kind kind = Kind::kLineFlat;
  int points = 0;  ///< stencil points (0 for SpMV)
  FlatStencil flat;
  SortedStencil sorted;
  long rows = 0;  ///< SpMV row count (the fixed parameter)
  std::vector<long> offsets;  ///< SpMV band offsets
  CompileRequest request;

  const void* descriptor() const {
    return kind == Kind::kLineSorted ? static_cast<const void*>(&sorted)
                                     : static_cast<const void*>(&flat);
  }
  std::uint64_t generic() const { return request.address; }
};

struct Step {
  int a = -1, b = -1;             ///< key per client; a == b: shared key
  std::uint64_t na = 0, nb = 0;   ///< tiered_jobs: calls per job
};

struct Inputs {
  std::string workload;
  int setup_reps = 3;
  int clients = 2;  ///< client threads walking the schedule (1 or 2)
  std::vector<std::unique_ptr<Key>> keys;
  std::vector<Step> steps;
  std::vector<int> warmup;  ///< keys the set-up compiles (never scheduled)
};

lift::Signature KernelSignature() {
  return lift::Signature{{lift::ArgKind::kInt, lift::ArgKind::kInt,
                          lift::ArgKind::kInt, lift::ArgKind::kInt},
                         lift::RetKind::kVoid};
}

bool ParseInputs(const std::string& path, Inputs* in, std::string* error) {
  std::ifstream file(path);
  if (!file) {
    *error = "cannot open " + path;
    return false;
  }
  std::string line;
  while (std::getline(file, line)) {
    std::istringstream s(line);
    std::string tag;
    if (!(s >> tag)) continue;
    if (tag == "workload") {
      s >> in->workload;
    } else if (tag == "setup_reps") {
      s >> in->setup_reps;
    } else if (tag == "clients") {
      s >> in->clients;
    } else if (tag == "warmup") {
      int k = -1;
      s >> k;
      in->warmup.push_back(k);
    } else if (tag == "step") {
      Step st;
      s >> st.a >> st.b;
      if (!(s >> st.na >> st.nb)) st.na = st.nb = 0;
      in->steps.push_back(st);
    } else if (tag == "key") {
      auto key = std::make_unique<Key>();
      std::memset(&key->flat, 0, sizeof(key->flat));
      std::memset(&key->sorted, 0, sizeof(key->sorted));
      int id = -1;
      std::string kind;
      s >> id >> kind;
      if (id != static_cast<int>(in->keys.size())) {
        *error = "key ids must be dense and ordered: " + line;
        return false;
      }
      if (kind == "lf" || kind == "ef") {
        key->kind = kind == "lf" ? Kind::kLineFlat : Kind::kElemFlat;
        s >> key->flat.point_count;
        key->points = key->flat.point_count;
        for (int i = 0; i < key->flat.point_count; ++i) {
          s >> key->flat.points[i].factor >> key->flat.points[i].dx >>
              key->flat.points[i].dy;
        }
      } else if (kind == "ls") {
        key->kind = Kind::kLineSorted;
        s >> key->sorted.group_count;
        for (int g = 0; g < key->sorted.group_count; ++g) {
          stencil::SortedGroup& grp = key->sorted.groups[g];
          s >> grp.factor >> grp.point_count;
          key->points += grp.point_count;
          for (int i = 0; i < grp.point_count; ++i) {
            s >> grp.points[i].dx >> grp.points[i].dy;
          }
        }
      } else if (kind == "sp") {
        key->kind = Kind::kSpmv;
        int count = 0;
        s >> key->rows >> count;
        key->offsets.resize(static_cast<std::size_t>(count));
        for (long& off : key->offsets) s >> off;
      } else {
        *error = "unknown key kind " + kind;
        return false;
      }
      if (!s) {
        *error = "malformed key line: " + line;
        return false;
      }
      std::uint64_t fn = 0;
      switch (key->kind) {
        case Kind::kLineFlat:
          fn = reinterpret_cast<std::uint64_t>(&stencil::stencil_line_flat);
          break;
        case Kind::kLineSorted:
          fn = reinterpret_cast<std::uint64_t>(&stencil::stencil_line_sorted);
          break;
        case Kind::kElemFlat:
          fn = reinterpret_cast<std::uint64_t>(&stencil::stencil_apply_flat);
          break;
        case Kind::kSpmv:
          fn = reinterpret_cast<std::uint64_t>(&spmv::spmv_full);
          break;
      }
      key->request = CompileRequest(fn, KernelSignature());
      if (key->kind == Kind::kSpmv) {
        key->request.FixParam(3, static_cast<std::uint64_t>(key->rows));
      } else if (key->kind == Kind::kLineSorted) {
        key->request.FixConstMem(0, &key->sorted, sizeof(SortedStencil));
      } else {
        key->request.FixConstMem(0, &key->flat, sizeof(FlatStencil));
      }
      in->keys.push_back(std::move(key));
    }
  }
  const int n = static_cast<int>(in->keys.size());
  for (const Step& st : in->steps) {
    if (st.a < 0 || st.a >= n || st.b < 0 || st.b >= n) {
      *error = "step references an unknown key";
      return false;
    }
  }
  for (int k : in->warmup) {
    if (k < 0 || k >= n) {
      *error = "warmup references an unknown key";
      return false;
    }
  }
  if (in->clients < 1 || in->clients > 2) {
    *error = "clients must be 1 or 2";
    return false;
  }
  if (in->workload.empty() || in->steps.empty()) {
    *error = "inputs name no workload or no steps";
    return false;
  }
  return true;
}

// --- kernel data ---------------------------------------------------------------

/// Read-only input grid shared by the clients.
std::vector<double> MakeGrid() {
  std::vector<double> grid(static_cast<std::size_t>(kN * kN));
  for (long r = 0; r < kN; ++r) {
    for (long c = 0; c < kN; ++c) {
      grid[static_cast<std::size_t>(r * kN + c)] =
          0.5 + 0.25 * std::sin(0.05 * static_cast<double>(r)) *
                    std::cos(0.03 * static_cast<double>(c));
    }
  }
  return grid;
}

/// Banded CSR matrix of one SpMV key (values are a fixed function of the
/// position, so the matrix is fully determined by the key's inputs).
spmv::CsrBuilder MakeMatrix(const Key& key) {
  spmv::CsrBuilder matrix(key.rows, key.rows);
  for (long r = 0; r < key.rows; ++r) {
    for (long off : key.offsets) {
      const long c = r + off;
      if (c < 0 || c >= key.rows) continue;
      matrix.Add(r, c, 1.0 + 0.01 * static_cast<double>((r * 7 + c * 13) % 17));
    }
  }
  return matrix;
}

std::vector<double> MakeVector(long n) {
  std::vector<double> x(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i) {
    x[static_cast<std::size_t>(i)] = 0.5 + 0.001 * static_cast<double>(i);
  }
  return x;
}

long SpmvPasses(const Key& key) {
  return std::max<long>(1, kSpmvPassRows / key.rows);
}

/// Relative tolerance of the repository's figure benches (ChecksumOk):
/// fast-math may contract mul+add to FMA in the specialized code.
bool Close(double got, double want) {
  return std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want));
}

/// Per-client scratch: output and native-reference buffers.
struct Buffers {
  std::vector<double> out = std::vector<double>(static_cast<std::size_t>(kN * kN));
  std::vector<double> ref = std::vector<double>(static_cast<std::size_t>(kN * kN));
  std::vector<double> first_row = std::vector<double>(static_cast<std::size_t>(kN));
};

/// Everything one job needs besides the handle.
struct JobData {
  const Key* key = nullptr;
  const double* grid = nullptr;
  spmv::CsrBuilder matrix{1, 1};
  spmv::CsrMatrix csr;
  std::vector<double> x;
};

void PrepareJob(const Key& key, const double* grid, JobData* d) {
  d->key = &key;
  d->grid = grid;
  if (key.kind == Kind::kSpmv) {
    d->matrix = MakeMatrix(key);
    d->csr = d->matrix.Finish();
    d->x = MakeVector(key.rows);
  }
}

/// One unit call (a row, an element or one SpMV product) through `entry`.
inline void UnitCall(const JobData& d, std::uint64_t entry, std::uint64_t i,
                     double* out) {
  const Key& k = *d.key;
  switch (k.kind) {
    case Kind::kLineFlat:
    case Kind::kLineSorted:
      reinterpret_cast<LineFn>(entry)(k.descriptor(), d.grid, out,
                                      1 + static_cast<long>(i % kInner));
      break;
    case Kind::kElemFlat: {
      const long e = static_cast<long>(i % (kElemRows * kInner));
      reinterpret_cast<LineFn>(entry)(k.descriptor(), d.grid, out,
                                      (1 + e / kInner) * kN + 1 + e % kInner);
      break;
    }
    case Kind::kSpmv:
      reinterpret_cast<SpmvFn>(entry)(&d.csr, d.x.data(), out, k.rows);
      break;
  }
}

/// Calls in one pass of a kind, and the output elements it produces.
std::uint64_t PassCalls(const Key& k) {
  switch (k.kind) {
    case Kind::kLineFlat:
    case Kind::kLineSorted:
      return kInner;
    case Kind::kElemFlat:
      return kElemRows * kInner;
    case Kind::kSpmv:
      return static_cast<std::uint64_t>(SpmvPasses(k));
  }
  return 0;
}
double PassElements(const Key& k) {
  if (k.kind == Kind::kSpmv) {
    return static_cast<double>(SpmvPasses(k) * k.rows);
  }
  if (k.kind == Kind::kElemFlat) return static_cast<double>(kElemRows * kInner);
  return static_cast<double>(kInner * kInner);
}

/// Runs one full pass, fetching the entry through `fetch` before each call.
template <typename Fetch>
void Pass(const JobData& d, Fetch fetch, double* out) {
  const std::uint64_t calls = PassCalls(*d.key);
  for (std::uint64_t i = 0; i < calls; ++i) UnitCall(d, fetch(), i, out);
}

/// Fills every element a pass of `k` writes with NaN, so an element the code
/// under test leaves unwritten cannot keep an earlier correct value.
void Poison(const Key& k, double* out) {
  std::size_t begin = 0, end = static_cast<std::size_t>(k.rows);
  if (k.kind != Kind::kSpmv) {
    const long rows = k.kind == Kind::kElemFlat ? kElemRows : kInner;
    begin = static_cast<std::size_t>(kN);
    end = static_cast<std::size_t>((rows + 1) * kN);
  }
  std::fill(out + begin, out + end, std::numeric_limits<double>::quiet_NaN());
}

/// Native generic pass of `d` into `ref`.
void ReferencePass(const JobData& d, double* ref) {
  const std::uint64_t generic = d.key->generic();
  Pass(d, [generic] { return generic; }, ref);
}

/// Compares the pass output in `got` with the reference pass in `ref`.
bool SameAsReference(const JobData& d, const double* got, const double* ref) {
  const Key& k = *d.key;
  if (k.kind == Kind::kSpmv) {
    for (long r = 0; r < k.rows; ++r) {
      if (!Close(got[r], ref[r])) return false;
    }
    return true;
  }
  const long rows = k.kind == Kind::kElemFlat ? kElemRows : kInner;
  for (long r = 1; r <= rows; ++r) {
    for (long c = 1; c <= kInner; ++c) {
      const std::size_t i = static_cast<std::size_t>(r * kN + c);
      if (!Close(got[i], ref[i])) return false;
    }
  }
  return true;
}

/// Native generic rows of the line-kernel calls [first_call, first_call +
/// count) into `ref`; call i computes row 1 + i % 647.
void NativeRows(const JobData& d, double* ref, std::uint64_t first_call,
                std::uint64_t count) {
  const Key& k = *d.key;
  for (std::uint64_t i = first_call; i < first_call + count; ++i) {
    reinterpret_cast<LineFn>(k.generic())(k.descriptor(), d.grid, ref,
                                          1 + static_cast<long>(i % kInner));
  }
}

/// Compares the rows of those calls in `got` with `ref`.
bool SameRows(const double* got, const double* ref, std::uint64_t first_call,
              std::uint64_t count) {
  for (std::uint64_t i = first_call; i < first_call + count; ++i) {
    const long row = 1 + static_cast<long>(i % kInner);
    for (long c = 1; c <= kInner; ++c) {
      const std::size_t idx = static_cast<std::size_t>(row * kN + c);
      if (!Close(got[idx], ref[idx])) return false;
    }
  }
  return true;
}

/// Current resident set of this process, in MB.
double ResidentMb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

/// Peak resident set of this process so far, in MB.
double PeakResidentMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// --- statistics -----------------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

struct Metric {
  double value = 0;
  std::string unit;
  std::size_t n = 0;
};
using Metrics = std::map<std::string, Metric>;

// --- one job --------------------------------------------------------------------

struct JobRecord {
  Kind kind = Kind::kLineFlat;
  int key = -1;
  bool ok = false;
  bool specialized = false;
  double request_ns = 0;
  double ttfsc_ns = 0;
  double job_ns = 0;
  double pass_ns = -1;   ///< steady band pass through the handle, -1 when none
  double band_native_ns = 0;  ///< the same band pass of the native generic kernel
  double pass_elems = 0;
  double promote_ns = -1;  ///< request -> tier()==kLlvm (tiered jobs)
  /// The handle's StageTimes total when its first specialized call ran: the
  /// compile (or DBrew seed) work its wait for specialized code explains.
  double stage_ns = 0;
  bool pending = false;    ///< Request() returned a not-yet-specialized handle
  bool traced = false;     ///< spans were recorded while the job ran
  double calls = 0;        ///< tiered jobs: the N line calls asked for
  double native_ns_per_elem = 0;  ///< the check's native generic pass
};

/// Request + serve-until-specialized + one pass (pass jobs), or request +
/// N line calls (tiered jobs, `calls` > 0), then the output check. The job
/// ends with its last call. `d` and `h` are left for SteadyPass; for a pass
/// job `buf.ref` holds the reference pass.
JobRecord RunJob(CompileService& svc, const Key& key, int key_index,
                 const double* grid, Buffers& buf, std::uint64_t calls,
                 JobData& d, FunctionHandle& h) {
  JobRecord rec;
  rec.kind = key.kind;
  rec.key = key_index;
  rec.calls = static_cast<double>(calls);
  PrepareJob(key, grid, &d);
  double* out = buf.out.data();
  double* ref = buf.ref.data();
  rec.traced = Tracer::Get().enabled();
  Poison(key, out);

  std::uint64_t t_first = 0, t_llvm = 0, t_job = 0;
  std::uint64_t first_call = 0, total_calls = 0;
  bool timed_out = false;
  const std::uint64_t t0 = NowNs();
  {
    Span job("bench.job");
    std::uint64_t t_req = 0;
    {
      Span s("runtime.request");
      h = svc.Request(key.request);
      t_req = NowNs();
    }
    rec.pending = h.tier() == Tier::kGeneric;
    rec.request_ns = static_cast<double>(t_req - t0);
    if (calls == 0) {
      {
        Span s("runtime.serve_until_specialized");
        for (std::uint64_t i = 0;; ++i) {
          const Tier tier = h.tier();
          UnitCall(d, h.target(), i, out);
          if (tier != Tier::kGeneric) break;
          if ((i & 63) == 63 && NowNs() - t0 > kJobTimeoutNs) {
            timed_out = true;
            break;
          }
        }
        t_first = NowNs();
      }
      rec.stage_ns = static_cast<double>(h.times().total_ns());
      if (!timed_out) {
        Span s("kernel.pass");
        Pass(d, [&h] { return h.target(); }, out);
      }
      t_job = NowNs();
    } else {
      Span s("kernel.calls");
      bool reached = false;
      std::uint64_t i = 0;
      for (;; ++i) {
        const Tier tier = h.tier();
        UnitCall(d, h.target(), i, out);
        if (!reached && tier != Tier::kGeneric) {
          t_first = NowNs();
          first_call = i;
          reached = true;
          rec.stage_ns = static_cast<double>(h.times().total_ns());
          const long row = 1 + static_cast<long>(i % kInner);
          std::memcpy(buf.first_row.data(), out + row * kN,
                      sizeof(double) * kN);
        }
        if (tier == Tier::kLlvm && t_llvm == 0) t_llvm = NowNs();
        if (i + 1 == calls) t_job = NowNs();
        if (i + 1 >= calls && reached) break;
        if ((i & 63) == 63 && NowNs() - t0 > kJobTimeoutNs) {
          timed_out = true;
          break;
        }
      }
      total_calls = i + 1;
      if (t_job == 0) t_job = NowNs();
    }
  }
  rec.specialized = !timed_out && t_first != 0;
  rec.ttfsc_ns = rec.specialized ? static_cast<double>(t_first - t0) : 0;
  rec.job_ns = static_cast<double>(t_job - t0);
  if (t_llvm != 0) rec.promote_ns = static_cast<double>(t_llvm - t0);
  if (!rec.specialized) return rec;

  if (calls == 0) return rec;  // FinishPass checks it

  Span s("bench.check");
  // The first specialized call's row, then every row of the last sweep.
  const long row = 1 + static_cast<long>(first_call % kInner);
  reinterpret_cast<LineFn>(key.generic())(key.descriptor(), grid, ref, row);
  bool ok = true;
  for (long c = 1; c <= kInner; ++c) {
    ok = ok && Close(buf.first_row[static_cast<std::size_t>(c)],
                     ref[static_cast<std::size_t>(row * kN + c)]);
  }
  const std::uint64_t tail = std::min<std::uint64_t>(total_calls, kInner);
  const std::uint64_t first_tail = total_calls - tail;
  const std::uint64_t t = NowNs();
  NativeRows(d, ref, first_tail, tail);
  rec.native_ns_per_elem = static_cast<double>(NowNs() - t) /
                           static_cast<double>(tail * kInner);
  ok = ok && SameRows(out, ref, first_tail, tail);
  if (total_calls > kInner) {
    // Rows of a long job were written more than once; repeat the last sweep
    // over poisoned rows so an element the final code skips cannot pass on
    // an earlier call's value.
    Poison(key, out);
    for (std::uint64_t i = first_tail; i < total_calls; ++i) {
      UnitCall(d, h.target(), i, out);
    }
    ok = ok && SameRows(out, ref, first_tail, tail);
  }
  rec.ok = ok;
  return rec;
}

/// The band pass of a kind: line kernels sweep rows 1..kBandRows
/// kBandSweeps times; the element and SpMV passes are L2-resident already.
template <typename Fetch>
void BandPass(const JobData& d, Fetch fetch, double* out) {
  const Key& k = *d.key;
  if (k.kind != Kind::kLineFlat && k.kind != Kind::kLineSorted) {
    Pass(d, fetch, out);
    return;
  }
  for (long i = 0; i < kBandRows * kBandSweeps; ++i) {
    reinterpret_cast<LineFn>(fetch())(k.descriptor(), d.grid, out, 1 + i % kBandRows);
  }
}
double BandElements(const Key& k) {
  if (k.kind == Kind::kLineFlat || k.kind == Kind::kLineSorted) {
    return static_cast<double>(kBandRows * kBandSweeps * kInner);
  }
  return PassElements(k);
}

/// Steady state of a specialized handle (kernel_vs_native): the band pass of
/// the native generic kernel into `buf.ref`, then the same pass through the
/// handle over poisoned output, both timed back to back so their ratio sees
/// one state of the host, then the check.
void SteadyBand(const FunctionHandle& h, const JobData& d, Buffers& buf,
                JobRecord& rec) {
  double* out = buf.out.data();
  double* ref = buf.ref.data();
  const std::uint64_t generic = d.key->generic();
  std::uint64_t t = NowNs();
  {
    Span s("kernel.native_band");
    BandPass(d, [generic] { return generic; }, ref);
  }
  rec.band_native_ns = static_cast<double>(NowNs() - t);
  Poison(*d.key, out);
  t = NowNs();
  {
    Span s("kernel.steady_pass");
    BandPass(d, [&h] { return h.target(); }, out);
  }
  rec.pass_ns = static_cast<double>(NowNs() - t);
  rec.pass_elems = BandElements(*d.key);
  Span s("bench.check");
  const Key& k = *d.key;
  if (k.kind == Kind::kLineFlat || k.kind == Kind::kLineSorted) {
    rec.ok = rec.ok && SameRows(out, ref, 0, kBandRows);
  } else {
    rec.ok = rec.ok && SameAsReference(d, out, ref);
  }
}

/// Checks a pass job: a native generic pass into `buf.ref` (timed: the
/// run's native_ns_per_elem), the comparison with the job's pass, then the
/// steady band.
void FinishPass(const FunctionHandle& h, const JobData& d, Buffers& buf,
                JobRecord& rec) {
  {
    Span s("bench.check");
    const std::uint64_t t = NowNs();
    ReferencePass(d, buf.ref.data());
    rec.native_ns_per_elem = static_cast<double>(NowNs() - t) / PassElements(*d.key);
    rec.ok = SameAsReference(d, buf.out.data(), buf.ref.data());
  }
  SteadyBand(h, d, buf, rec);
}

// --- workloads -----------------------------------------------------------------

enum class Workload { kCold, kTiered };

bool ParseWorkload(const std::string& name, Workload* w) {
  if (name == "cold_specialize") *w = Workload::kCold;
  else if (name == "tiered_jobs") *w = Workload::kTiered;
  else return false;
  return true;
}

CompileService::Options ServiceOptions(Workload w, const std::string& dir) {
  CompileService::Options o;
  o.workers = 2;
  if (w == Workload::kCold) o.persist_dir = dir;
  if (w == Workload::kTiered) o.tiering.enabled = true;
  return o;
}

/// Counter deltas over a window (CacheStats + the process-wide registry).
struct Counters {
  CacheStats stats;
  std::uint64_t installs = 0;
};
Counters Snapshot(CompileService& svc) {
  return {svc.stats(), obs::Registry::Default().Value("cache.installs")};
}

struct Window {
  std::vector<JobRecord> jobs;
  double seconds = 0;
  /// Resident set after the first kRssMarkSteps steps (allocator pools and
  /// one-time JIT state have grown by then) and at the end, and the
  /// specialized jobs between the two.
  double rss_mark_mb = 0, rss_end_mb = 0;
  std::size_t specialized_after_mark = 0;
  std::vector<int> keys_requested;  ///< distinct key indices, request order
  /// Distinct keys: the number of installs and compiles a perfect
  /// single-flight cache would do in the window.
  std::size_t service_keys = 0;
  // Counter deltas over the window.
  std::uint64_t hits = 0, coalesced = 0, misses = 0, compiles = 0,
                tier0a_compiles = 0, tier0a_ns = 0, interim_installs = 0,
                promotions = 0, disk_hits = 0, disk_misses = 0,
                disk_load_ns = 0, disk_stores = 0, disk_store_ns = 0,
                shm_hits = 0, shm_misses = 0, installs = 0, lift_ns = 0,
                opt_ns = 0, jit_ns = 0;
  bool exhausted = false;
};

void AddDelta(Window& w, const Counters& a, const Counters& b) {
  const CacheStats& x = a.stats;
  const CacheStats& y = b.stats;
  w.hits += y.hits - x.hits;
  w.coalesced += y.coalesced - x.coalesced;
  w.misses += y.misses - x.misses;
  w.compiles += y.compiles - x.compiles;
  w.tier0a_compiles += y.tier0a_compiles - x.tier0a_compiles;
  w.tier0a_ns += y.stage_total.tier0a_ns - x.stage_total.tier0a_ns;
  w.interim_installs += y.interim_installs - x.interim_installs;
  w.promotions += y.promotions - x.promotions;
  w.disk_hits += y.disk_hits - x.disk_hits;
  w.disk_misses += y.disk_misses - x.disk_misses;
  w.disk_load_ns += y.disk_load_ns - x.disk_load_ns;
  w.disk_stores += y.disk_stores - x.disk_stores;
  w.disk_store_ns += y.disk_store_ns - x.disk_store_ns;
  w.shm_hits += y.shm_hits - x.shm_hits;
  w.shm_misses += y.shm_misses - x.shm_misses;
  w.installs += b.installs - a.installs;
  w.lift_ns += y.stage_total.lift_ns - x.stage_total.lift_ns;
  w.opt_ns += y.stage_total.opt_ns - x.stage_total.opt_ns;
  w.jit_ns += y.stage_total.jit_ns - x.stage_total.jit_ns;
}

class Bench {
 public:
  Bench(Workload w, Inputs in, std::string cache_root)
      : w_(w), in_(std::move(in)), cache_root_(std::move(cache_root)),
        grid_(MakeGrid()) {
  }

  /// Set-up, repeated `setup_reps` times; the last one serves the run.
  /// Returns the per-repetition wall times in seconds.
  std::vector<double> Setup() {
    std::vector<double> times;
    for (int rep = 0; rep < std::max(1, in_.setup_reps); ++rep) {
      svc_.reset();
      if (!dir_.empty()) std::filesystem::remove_all(dir_);
      dir_ = cache_root_ + "/setup" + std::to_string(rep);
      const std::uint64_t t0 = NowNs();
      {
        Span s("bench.setup");
        if (!SetupOnce()) return {};
      }
      times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
    return times;
  }

  /// One measured window: the clients walk the schedule in lockstep until
  /// `seconds` have passed (checked between steps). With `alternate_trace`
  /// span recording is switched on for every other step, so traced and
  /// untraced jobs interleave and their medians give the tracing overhead
  /// without drift between two separate windows.
  Window Run(double seconds, bool alternate_trace = false) {
    Window win;
    const int clients = in_.clients;
    std::vector<Buffers> bufs(static_cast<std::size_t>(clients));
    std::atomic<bool> stop{false};
    const std::uint64_t t0 = NowNs();
    const std::uint64_t limit = t0 + static_cast<std::uint64_t>(seconds * 1e9);
    const Counters before = Snapshot(*svc_);
    std::uint64_t steps_done = 0;
    std::vector<std::vector<JobRecord>> recs(static_cast<std::size_t>(clients));
    std::size_t specialized_at_mark = 0;
    if (alternate_trace) Tracer::Get().set_enabled(true);
    auto on_step_done = [&]() noexcept {
      ++steps_done;
      if (alternate_trace) Tracer::Get().set_enabled(steps_done % 2 == 0);
      if (steps_done == kRssMarkSteps) {
        win.rss_mark_mb = ResidentMb();
        for (const auto& r : recs) {
          for (const JobRecord& j : r) specialized_at_mark += j.specialized ? 1 : 0;
        }
      }
      // Runs on one thread while any other waits: drain background compiles
      // (tiered jobs), advance the schedule.
      if (w_ == Workload::kTiered) {
        Span s("runtime.wait_idle");
        svc_->WaitIdle();
      }
      if (++cursor_ >= in_.steps.size()) {
        win.exhausted = true;
        stop = true;
        return;
      }
      if (NowNs() >= limit) stop = true;
    };
    std::barrier sync(clients, on_step_done);
    // Every client's job has ended when they pass `jobs_done`, so no compile
    // or install a job waits for runs beside the steady passes after it.
    std::barrier jobs_done(clients);
    auto client = [&](int c) {
      while (!stop.load()) {
        const Step& st = in_.steps[cursor_];
        const int k = c == 0 ? st.a : st.b;
        const std::uint64_t calls = c == 0 ? st.na : st.nb;
        const Key& key = *in_.keys[static_cast<std::size_t>(k)];
        Buffers& buf = bufs[static_cast<std::size_t>(c)];
        {
          JobData d;
          FunctionHandle h;
          try {
            recs[c].push_back(RunJob(*svc_, key, k, grid_.data(), buf, calls, d, h));
          } catch (const std::exception& e) {
            // Counted as a failed job; the other client must still meet
            // this client at the barriers.
            std::fprintf(stderr, "job on key %d threw: %s\n", k, e.what());
            JobRecord failed;
            failed.kind = key.kind;
            failed.key = k;
            recs[c].push_back(failed);
          }
          JobRecord& rec = recs[c].back();
          jobs_done.arrive_and_wait();
          if (calls == 0 && rec.specialized) {
            FinishPass(h, d, buf, rec);
          } else if (rec.specialized && h.tier() == Tier::kLlvm) {
            SteadyBand(h, d, buf, rec);  // a tiered job that promoted
          }
        }
        sync.arrive_and_wait();
      }
    };
    std::thread other;
    if (clients == 2) other = std::thread(client, 1);
    client(0);
    if (other.joinable()) other.join();
    if (alternate_trace) Tracer::Get().set_enabled(true);
    win.seconds = static_cast<double>(NowNs() - t0) / 1e9;
    win.rss_end_mb = ResidentMb();
    AddDelta(win, before, Snapshot(*svc_));

    std::vector<char> seen(in_.keys.size(), 0);
    std::size_t specialized = 0;
    for (auto& r : recs) {
      for (const JobRecord& j : r) {
        specialized += j.specialized ? 1 : 0;
        if (!seen[static_cast<std::size_t>(j.key)]) {
          seen[static_cast<std::size_t>(j.key)] = 1;
          win.keys_requested.push_back(j.key);
        }
        win.jobs.push_back(j);
      }
    }
    win.service_keys = win.keys_requested.size();
    if (steps_done >= kRssMarkSteps) {
      win.specialized_after_mark = specialized - specialized_at_mark;
    }
    return win;
  }

  /// Warm restart: a fresh service over the same cache directory -- the
  /// in-process equivalent of a process restart -- requests `keys` once
  /// each from one client, newest first, and every job runs and checks a
  /// pass. The ring holds the newest 64 stored keys, so with more keys both
  /// the shm ring and the disk rung serve. A job whose request did not
  /// return specialized code waited for a compile and fails.
  Window Restart(const std::vector<int>& keys) {
    Window win;
    svc_.reset();
    {
      Span s("runtime.service_start");
      svc_ = std::make_unique<CompileService>(ServiceOptions(w_, dir_));
    }
    const Counters before = Snapshot(*svc_);
    Buffers buf;
    const std::uint64_t t0 = NowNs();
    for (int k : keys) {
      const Key& key = *in_.keys[static_cast<std::size_t>(k)];
      JobData d;
      FunctionHandle h;
      JobRecord rec = RunJob(*svc_, key, k, grid_.data(), buf, 0, d, h);
      if (rec.specialized) FinishPass(h, d, buf, rec);
      rec.ok = rec.ok && !rec.pending;
      win.jobs.push_back(rec);
      win.keys_requested.push_back(k);
    }
    win.seconds = static_cast<double>(NowNs() - t0) / 1e9;
    AddDelta(win, before, Snapshot(*svc_));
    win.service_keys = keys.size();
    return win;
  }

  CompileService& service() { return *svc_; }
  const Inputs& inputs() const { return in_; }
  const std::string& dir() const { return dir_; }
  const double* grid() const { return grid_.data(); }
  Workload workload() const { return w_; }

 private:
  bool SetupOnce() {
    // A service over an empty cache directory, warmed by compiling the
    // warm-up keys so one-time lazy initialization stays out of the window.
    {
      Span s("runtime.service_start");
      svc_ = std::make_unique<CompileService>(ServiceOptions(w_, dir_));
    }
    std::vector<FunctionHandle> hs;
    for (int k : in_.warmup) {
      hs.push_back(svc_->Request(in_.keys[static_cast<std::size_t>(k)]->request));
    }
    for (const FunctionHandle& h : hs) {
      if (h.wait() == 0 || h.tier() == Tier::kGeneric) return false;
    }
    Span s("runtime.wait_idle");
    svc_->WaitIdle();
    return true;
  }

  Workload w_;
  Inputs in_;
  std::string cache_root_;
  std::string dir_;
  std::vector<double> grid_;
  std::unique_ptr<CompileService> svc_;
  std::size_t cursor_ = 0;
};


// --- per-layer replays (traced run only) ----------------------------------------

struct Replay {
  double cfg_ns = 0, audit_ns = 0, lift_ns = 0, opt_ns = 0, jit_ns = 0;
  double ir_pre = 0, ir_post = 0, dbrew_ns = 0;
  bool ok = false;
};

/// Re-runs one key's cold path through the modules' public functions.
Replay ReplayCompile(const Key& key, lift::Jit& jit) {
  Replay r;
  CompileRequest req = key.request;
  req.config.isa_level =
      static_cast<int>(support::ResolveIsaLevel(req.config.isa_level));
  std::uint64_t t = NowNs();
  {
    Span s("x86.cfg");
    if (!x86::BuildCfg(key.generic()).has_value()) return r;
  }
  r.cfg_ns = static_cast<double>(NowNs() - t);
  t = NowNs();
  {
    Span s("analysis.audit");
    if (!analysis::AuditFunction(key.generic()).lift_eligible()) return r;
  }
  r.audit_ns = static_cast<double>(NowNs() - t);
  lift::Lifter lifter(req.config);
  t = NowNs();
  Expected<lift::LiftedFunction> lifted = [&] {
    Span s("lift.lift");
    auto fn = lifter.Lift(key.generic(), req.signature);
    if (!fn.has_value()) return fn;
    for (const runtime::SpecAction& a : req.specs) {
      const Status st =
          a.kind == runtime::SpecAction::Kind::kParam
              ? fn->SpecializeParam(a.index, a.value)
              : fn->SpecializeParamToConstMem(a.index, key.descriptor(),
                                              a.bytes.size());
      if (!st.ok()) return Expected<lift::LiftedFunction>(st.error());
    }
    return fn;
  }();
  r.lift_ns = static_cast<double>(NowNs() - t);
  if (!lifted.has_value()) return r;
  r.ir_pre = static_cast<double>(lifted->IrInstructionCount());
  t = NowNs();
  {
    Span s("lift.opt");
    if (!lifted->Optimize().ok()) return r;
  }
  r.opt_ns = static_cast<double>(NowNs() - t);
  r.ir_post = static_cast<double>(lifted->IrInstructionCount());
  t = NowNs();
  {
    Span s("lift.jit");
    if (!lifted->Compile(jit).has_value()) return r;
  }
  r.jit_ns = static_cast<double>(NowNs() - t);
  t = NowNs();
  {
    Span s("dbrew.rewrite");
    if (!runtime::Tier1Rewrite(req).has_value()) return r;
  }
  r.dbrew_ns = static_cast<double>(NowNs() - t);
  r.ok = true;
  return r;
}

/// Re-runs one key's warm path: store read, then ORC install.
bool ReplayInstall(const Key& key, const std::string& dir, lift::Jit& jit,
                   double* load_ns, double* install_ns) {
  CompileRequest req = key.request;
  req.config.isa_level =
      static_cast<int>(support::ResolveIsaLevel(req.config.isa_level));
  const std::uint64_t fp = runtime::PersistFingerprint(
      runtime::SpecKey(req), req.address, req.config.isa_level);
  runtime::ObjectStore::Options options;
  options.dir = dir;
  runtime::ObjectStore store(options);
  runtime::ObjectEntry entry;
  std::uint64_t t = NowNs();
  {
    Span s("runtime.store_load");
    if (!store.Load(fp, &entry)) return false;
  }
  *load_ns = static_cast<double>(NowNs() - t);
  t = NowNs();
  {
    Span s("runtime.install");
    if (!lift::LoadCachedObject(jit, entry.object, entry.wrapper_name,
                                entry.membase_symbol, entry.membase_value)
             .has_value()) {
      return false;
    }
  }
  *install_ns = static_cast<double>(NowNs() - t);
  return true;
}

/// Requests `key` and drives calls until the handle serves Tier 0.
FunctionHandle SpecializedHandle(CompileService& svc, const Key& key,
                                 const double* grid, Buffers& buf) {
  FunctionHandle h = svc.Request(key.request);
  (void)h.wait();
  JobData d;
  PrepareJob(key, grid, &d);
  const std::uint64_t t0 = NowNs();
  for (std::uint64_t c = 0; h.tier() != Tier::kLlvm; ++c) {
    UnitCall(d, h.target(), c, buf.out.data());
    if ((c & 255) == 255) {
      svc.WaitIdle();
      if (NowNs() - t0 > kJobTimeoutNs) break;
    }
  }
  return h;
}

// --- metrics ------------------------------------------------------------------------

double JobQuantile(const Window& w, double JobRecord::*field, double q) {
  std::vector<double> v;
  for (const JobRecord& j : w.jobs) v.push_back(j.*field);
  return Quantile(v, q);
}

double Ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

double PassNsPerElem(const JobRecord& j) {
  return j.pass_ns > 0 && j.pass_elems > 0 ? j.pass_ns / j.pass_elems : 0.0;
}
double NativeNsPerElem(const JobRecord& j) { return j.native_ns_per_elem; }
/// Steady band time through the handle over the same band's native time.
double PassVsNative(const JobRecord& j) {
  return j.pass_ns > 0 ? Ratio(j.pass_ns, j.band_native_ns) : 0.0;
}

/// Per-kind median of steady-band time through the handle per output
/// element; `n` accumulates the sample count.
double KindNsPerElem(const Window& w, Kind kind, std::size_t* n) {
  std::vector<double> v;
  for (const JobRecord& j : w.jobs) {
    const double x = j.kind == kind ? PassNsPerElem(j) : 0.0;
    if (x > 0) v.push_back(x);
  }
  if (n != nullptr) *n += v.size();
  return Median(v);
}

/// Geometric mean over the kinds present of KindNsPerElem.
double KindGeoMean(const Window& w, std::size_t* n) {
  double log_sum = 0;
  int kinds = 0;
  for (int k = 0; k < kKinds; ++k) {
    const double v = KindNsPerElem(w, static_cast<Kind>(k), n);
    if (v > 0) {
      log_sum += std::log(v);
      ++kinds;
    }
  }
  return kinds > 0 ? std::exp(log_sum / kinds) : 0.0;
}

/// Geometric mean of a per-job quantity over the jobs that have one. A mean
/// of logs, unlike a median, does not jump between the modes of the
/// kernel/point-count mix.
double JobGeoMean(const Window& w, double (*f)(const JobRecord&), std::size_t* n) {
  double log_sum = 0;
  std::size_t count = 0;
  for (const JobRecord& j : w.jobs) {
    const double x = f(j);
    if (x > 0) {
      log_sum += std::log(x);
      ++count;
    }
  }
  if (n != nullptr) *n = count;
  return count > 0 ? std::exp(log_sum / static_cast<double>(count)) : 0.0;
}

/// Speed of the natively built generic kernels in this run, from the checks'
/// reference passes (ns per output element). dbll generates none of that
/// code, so it tracks only the host: its speed regime, frequency and steal.
double HostNativeNsPerElem(const Window& w) {
  return JobGeoMean(w, NativeNsPerElem, nullptr);
}

/// End-to-end metrics. Every latency is divided by the run's own native
/// generic time per element (HostNativeNsPerElem), so it reads as the number
/// of output elements the native generic kernel computes in that time, and
/// host speed swings that slow native code as well largely cancel.
/// Memory is split the same way: the peak after set-up, and the growth per
/// specialization over the window after its first kRssMarkSteps steps
/// (installed code stays resident, so the window's peak follows how many
/// jobs the host's speed allowed).
/// `absolute` receives the wall-clock values the report prints beside them.
void EndToEnd(const Window& w, const std::vector<double>& setup, double setup_rss_mb,
              Metrics& m, Metrics& absolute) {
  const std::size_t n = w.jobs.size();
  std::vector<double> ttfsc, job;
  std::size_t specialized = 0;
  for (const JobRecord& j : w.jobs) {
    // A job that never reached specialized code counts at its full
    // elapsed time: it missed any latency limit.
    ttfsc.push_back(j.specialized ? j.ttfsc_ns : j.job_ns);
    job.push_back(j.job_ns);
    specialized += j.specialized ? 1 : 0;
  }
  const double native = HostNativeNsPerElem(w);
  std::size_t passes = 0;
  const double kernel = KindGeoMean(w, &passes);
  const double spec_ns = Ratio(w.seconds * 1e9, static_cast<double>(specialized));
  m["setup_s"] = {Median(setup), "s", setup.size()};
  m["ttfsc_p50_elems"] = {Ratio(Quantile(ttfsc, 0.5), native), "elem", n};
  m["elems_per_specialization"] = {Ratio(spec_ns, native), "elem", specialized};
  m["job_p50_elems"] = {Ratio(Quantile(job, 0.5), native), "elem", n};
  m["job_p90_elems"] = {Ratio(Quantile(job, 0.9), native), "elem", n};
  std::size_t pairs = 0;
  const double vs_native = JobGeoMean(w, PassVsNative, &pairs);
  m["kernel_vs_native"] = {vs_native, "ratio", pairs};
  m["rss_setup_mb"] = {setup_rss_mb, "MB", setup.size()};
  m["rss_kb_per_specialization"] = {
      Ratio((w.rss_end_mb - w.rss_mark_mb) * 1024.0,
            static_cast<double>(w.specialized_after_mark)),
      "KB", w.specialized_after_mark};

  absolute["ttfsc_p50_us"] = {Quantile(ttfsc, 0.5) / 1e3, "us", n};
  absolute["ttfsc_p90_us"] = {Quantile(ttfsc, 0.9) / 1e3, "us", n};
  absolute["specializations_per_s"] = {static_cast<double>(specialized) / w.seconds,
                                       "1/s", specialized};
  absolute["job_p50_ms"] = {Quantile(job, 0.5) / 1e6, "ms", n};
  absolute["job_p90_ms"] = {Quantile(job, 0.9) / 1e6, "ms", n};
  absolute["kernel_ns_per_elem"] = {kernel, "ns", passes};
  absolute["rss_peak_mb"] = {PeakResidentMb(), "MB", 1};
}

struct LayerInputs {
  std::vector<Replay> replays;
  std::vector<double> load_ns, install_ns;
  double target_ns = 0;
  double vs_native = 0;
  double overhead_pct = 0;
};

/// Per-layer metrics of window `w`. `warm` is the restart phase of a
/// persisting workload (nullptr otherwise): the warm-path metrics come from
/// it, since the window's own requests are all misses there.
void Layers(const Window& w, const Window* warm, const LayerInputs& li, Metrics& m) {
  const double jobs = static_cast<double>(std::max<std::size_t>(1, w.jobs.size()));
  const double keys = static_cast<double>(std::max<std::size_t>(1, w.service_keys));
  const std::size_t nj = w.jobs.size();
  auto replay_median = [&](double Replay::*f) {
    std::vector<double> v;
    for (const Replay& r : li.replays) {
      if (r.ok) v.push_back(r.*f);
    }
    return Median(v);
  };
  const std::size_t nr = li.replays.size();
  // Replayed stage cost, charged per job by the Tier-0 compiles the service
  // actually ran in the window.
  const double compiles_per_job = static_cast<double>(w.compiles) / jobs;
  m["x86.cfg_us"] = {replay_median(&Replay::cfg_ns) * compiles_per_job / 1e3, "us", nr};
  m["analysis.audit_us"] = {replay_median(&Replay::audit_ns) * compiles_per_job / 1e3, "us", nr};
  m["lift.lift_us"] = {replay_median(&Replay::lift_ns) * compiles_per_job / 1e3, "us", nr};
  m["lift.opt_us"] = {replay_median(&Replay::opt_ns) * compiles_per_job / 1e3, "us", nr};
  m["lift.jit_us"] = {replay_median(&Replay::jit_ns) * compiles_per_job / 1e3, "us", nr};
  m["lift.ir_insts_pre_opt"] = {replay_median(&Replay::ir_pre), "count", nr};
  m["lift.ir_insts_post_opt"] = {replay_median(&Replay::ir_post), "count", nr};
  m["dbrew.rewrite_us"] = {replay_median(&Replay::dbrew_ns) *
                               static_cast<double>(w.interim_installs) / jobs / 1e3,
                           "us", nr};

  m["runtime.stage_sum_us"] = {
      static_cast<double>(w.lift_ns + w.opt_ns + w.jit_ns) / jobs / 1e3, "us", nj};
  std::vector<double> queue;
  for (const JobRecord& j : w.jobs) {
    if (j.pending && j.stage_ns > 0 && j.specialized) {
      queue.push_back(std::max(0.0, j.ttfsc_ns - j.request_ns - j.stage_ns));
    }
  }
  m["runtime.queue_wait_us"] = {Median(queue) / 1e3, "us", queue.size()};
  m["runtime.compiles_per_key"] = {static_cast<double>(w.compiles) / keys, "ratio",
                                   w.service_keys};
  auto gap = [](const Window& x) {
    return static_cast<double>(x.jobs.size()) -
           static_cast<double>(x.hits + x.coalesced + x.misses);
  };
  m["runtime.counter_gap"] = {gap(w) + (warm != nullptr ? gap(*warm) : 0.0), "count",
                              nj + (warm != nullptr ? warm->jobs.size() : 0)};
  m["runtime.store_write_us"] = {
      Ratio(static_cast<double>(w.disk_store_ns), static_cast<double>(w.disk_stores)) / 1e3,
      "us", w.disk_stores};
  const Window& rw = warm != nullptr ? *warm : w;
  const double rw_jobs = static_cast<double>(std::max<std::size_t>(1, rw.jobs.size()));
  m["runtime.request_us"] = {JobQuantile(rw, &JobRecord::request_ns, 0.5) / 1e3, "us",
                             rw.jobs.size()};
  m["runtime.store_load_us"] = {
      Ratio(static_cast<double>(rw.disk_load_ns),
            static_cast<double>(rw.disk_hits + rw.disk_misses)) / 1e3,
      "us", rw.disk_hits + rw.disk_misses};
  m["runtime.install_us"] = {Median(li.install_ns) *
                                 static_cast<double>(rw.disk_hits) / rw_jobs / 1e3,
                             "us", li.install_ns.size()};
  m["runtime.shm_hit_ratio"] = {
      Ratio(static_cast<double>(rw.shm_hits), static_cast<double>(rw.shm_hits + rw.shm_misses)),
      "ratio", rw.shm_hits + rw.shm_misses};
  m["runtime.installs_per_key"] = {
      Ratio(static_cast<double>(rw.installs), static_cast<double>(rw.service_keys)), "ratio",
      rw.service_keys};
  m["runtime.tier0a_us"] = {
      Ratio(static_cast<double>(w.tier0a_ns), static_cast<double>(w.tier0a_compiles)) / 1e3,
      "us", w.tier0a_compiles};
  std::vector<double> promote;
  for (const JobRecord& j : w.jobs) {
    if (j.promote_ns > 0) promote.push_back(j.promote_ns);
  }
  m["runtime.promote_ms"] = {Median(promote) / 1e6, "ms", promote.size()};
  m["runtime.promotions_per_job"] = {static_cast<double>(w.promotions) / jobs, "ratio", nj};
  m["runtime.target_ns"] = {li.target_ns, "ns", 5};

  std::size_t n = 0;
  m["stencil.line_flat_ns_per_elem"] = {KindNsPerElem(w, Kind::kLineFlat, &n), "ns", n};
  n = 0;
  m["stencil.line_sorted_ns_per_elem"] = {KindNsPerElem(w, Kind::kLineSorted, &n), "ns", n};
  n = 0;
  m["stencil.element_flat_ns_per_elem"] = {KindNsPerElem(w, Kind::kElemFlat, &n), "ns", n};
  n = 0;
  m["spmv.ns_per_row"] = {KindNsPerElem(w, Kind::kSpmv, &n), "ns", n};
  m["stencil.vs_native_ratio"] = {li.vs_native, "ratio", 9};

  // Layer attribution. Request() (store reads and installs included: a
  // disk hit installs inside it) and every call made at a specialized tier
  // are measured directly; so is the part of a wait for specialized code
  // that the handle's StageTimes explain. The rest of each wait -- generic
  // calls while the job sat in the queue, behind jit_mutex_ or in
  // publication -- is unattributed.
  double total = 0, wait = 0, explained = 0;
  for (const JobRecord& j : w.jobs) {
    total += j.job_ns;
    if (!j.specialized) {
      wait += j.job_ns - j.request_ns;
    } else if (j.pending) {
      const double w_j = j.ttfsc_ns - j.request_ns;
      wait += w_j;
      explained += std::min(w_j, j.stage_ns);
    }
  }
  const double unattributed = std::max(0.0, wait - explained);
  m["trace.coverage"] = {total > 0 ? 1.0 - unattributed / total : 0.0, "ratio", nj};
  m["trace.overhead_pct"] = {li.overhead_pct, "%", nj};
}

/// Post-window measurements on live handles: the target() fetch cost and
/// the specialized-vs-hard-coded line kernel ratio (paper Fig. 9).
void MeasureHandles(Bench& b, const Window& w, LayerInputs& li) {
  const Inputs& in = b.inputs();
  const Key* four = nullptr;
  for (int k : w.keys_requested) {
    const Key& key = *in.keys[static_cast<std::size_t>(k)];
    if (key.kind == Kind::kLineFlat && (four == nullptr || key.points == 4)) {
      four = &key;
      if (key.points == 4) break;
    }
  }
  if (four == nullptr) return;
  Buffers buf;
  FunctionHandle h = SpecializedHandle(b.service(), *four, b.grid(), buf);
  std::vector<double> fetch;
  std::uint64_t sink = 0;
  for (int round = 0; round < 5; ++round) {
    Span s("runtime.target_batch");
    constexpr int kFetches = 1 << 20;
    const std::uint64_t t0 = NowNs();
    for (int i = 0; i < kFetches; ++i) sink ^= h.target();
    fetch.push_back(static_cast<double>(NowNs() - t0) / kFetches);
  }
  if (sink == 1) std::fprintf(stderr, " ");
  li.target_ns = Median(fetch);

  JobData d;
  PrepareJob(*four, b.grid(), &d);
  std::vector<double> ratio;
  for (int round = 0; round < 9; ++round) {
    std::uint64_t t0 = NowNs();
    {
      Span s("kernel.pass");
      Pass(d, [&h] { return h.target(); }, buf.out.data());
    }
    const double spec = static_cast<double>(NowNs() - t0);
    t0 = NowNs();
    {
      Span s("kernel.direct_pass");
      for (long r = 1; r <= kInner; ++r) {
        stencil::stencil_line_direct(nullptr, b.grid(), buf.ref.data(), r);
      }
    }
    ratio.push_back(spec / static_cast<double>(NowNs() - t0));
  }
  li.vs_native = Median(ratio);
}

LayerInputs Replays(Bench& b, const Window& w) {
  LayerInputs li;
  const Inputs& in = b.inputs();
  // Two keys of every kind the window requested, in request order.
  int per_kind[kKinds] = {0, 0, 0, 0};
  lift::Jit jit;
  const bool persist = b.workload() == Workload::kCold;
  for (int k : w.keys_requested) {
    const Key& key = *in.keys[static_cast<std::size_t>(k)];
    int& count = per_kind[static_cast<int>(key.kind)];
    if (count >= 2) continue;
    ++count;
    li.replays.push_back(ReplayCompile(key, jit));
    double load = 0, install = 0;
    if (persist && ReplayInstall(key, b.dir(), jit, &load, &install)) {
      li.load_ns.push_back(load);
      li.install_ns.push_back(install);
    }
  }
  MeasureHandles(b, w, li);
  return li;
}

// --- host identity and output ------------------------------------------------------

std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto pos = line.find(':');
      if (pos != std::string::npos) return line.substr(pos + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& v) {
  std::string out = "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

void ClearDbllEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry(*e);
    if (entry.rfind("DBLL_", 0) == 0) names.push_back(entry.substr(0, entry.find('=')));
  }
  for (const std::string& name : names) unsetenv(name.c_str());
}

int Main(int argc, char** argv) {
  std::string inputs_path, cache_root, trace_out;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--inputs") inputs_path = value;
    else if (flag == "--seconds") seconds = std::atof(value.c_str());
    else if (flag == "--trace") trace = std::atoi(value.c_str());
    else if (flag == "--cache-dir") cache_root = value;
    else if (flag == "--trace-out") trace_out = value;
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (inputs_path.empty() || cache_root.empty() || seconds <= 0) {
    std::fprintf(stderr, "usage: perfbench_workload --inputs FILE --seconds S "
                         "--trace 0|1 --cache-dir DIR [--trace-out FILE]\n");
    return 2;
  }
  // Every DBLL_* override is dropped before any service exists: the run
  // measures the default configuration plus the workload's own options.
  ClearDbllEnvironment();

  Inputs in;
  std::string error;
  if (!ParseInputs(inputs_path, &in, &error)) {
    std::fprintf(stderr, "inputs: %s\n", error.c_str());
    return 2;
  }
  Workload workload;
  if (!ParseWorkload(in.workload, &workload)) {
    std::fprintf(stderr, "unknown workload %s\n", in.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(cache_root);
  const std::string workload_name = in.workload;

  Metrics metrics, absolute;
  Window win, warm;
  {
    Bench bench(workload, std::move(in), cache_root);
    Tracer::Get().set_enabled(trace != 0);
    const std::vector<double> setup = bench.Setup();
    if (setup.empty()) {
      std::fprintf(stderr, "set-up failed\n");
      return 3;
    }
    const double setup_rss_mb = PeakResidentMb();
    if (trace == 0) {
      win = bench.Run(seconds);
      EndToEnd(win, setup, setup_rss_mb, metrics, absolute);
    } else {
      win = bench.Run(seconds, /*alternate_trace=*/true);
      LayerInputs li = Replays(bench, win);
      const bool persist = workload == Workload::kCold;
      if (persist) {
        const auto& order = win.keys_requested;
        const std::size_t n = std::min(kRestartKeys, order.size());
        warm = bench.Restart(std::vector<int>(order.rbegin(), order.rbegin() + n));
      }
      Tracer::Get().set_enabled(false);
      // Tiered job lengths span three decades, so their times are compared
      // per call; other workloads' jobs are alike across steps.
      std::vector<double> traced, plain;
      for (const JobRecord& j : win.jobs) {
        (j.traced ? traced : plain).push_back(j.job_ns / std::max(1.0, j.calls));
      }
      li.overhead_pct = 100.0 * Ratio(Median(traced) - Median(plain), Median(plain));
      Layers(win, persist ? &warm : nullptr, li, metrics);
      if (!trace_out.empty() && !Tracer::Get().Write(trace_out)) {
        std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
        return 3;
      }
    }
  }
  std::filesystem::remove_all(cache_root);

  std::uint64_t failed = 0;
  for (const JobRecord& j : win.jobs) failed += j.ok ? 0 : 1;
  for (const JobRecord& j : warm.jobs) failed += j.ok ? 0 : 1;
  // A warm restart must be served entirely from the store.
  failed += warm.compiles;
  const std::uint64_t attempted = win.jobs.size() + warm.jobs.size();
  failed = std::min(failed, attempted);

  std::printf("{\"workload\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"exhausted\": %s, \"window_s\": %.6f, ",
              JsonString(workload_name).c_str(),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              win.exhausted ? "true" : "false", win.seconds);
  std::printf("\"counters\": {\"requests\": %zu, \"hits\": %llu, "
              "\"coalesced\": %llu, \"misses\": %llu, \"compiles\": %llu, "
              "\"installs\": %llu, \"service_keys\": %zu",
              win.jobs.size(), static_cast<unsigned long long>(win.hits),
              static_cast<unsigned long long>(win.coalesced),
              static_cast<unsigned long long>(win.misses),
              static_cast<unsigned long long>(win.compiles),
              static_cast<unsigned long long>(win.installs), win.service_keys);
  if (!warm.jobs.empty()) {
    std::printf(", \"restart_requests\": %zu, \"restart_shm_hits\": %llu, "
                "\"restart_disk_hits\": %llu, \"restart_compiles\": %llu, "
                "\"restart_installs\": %llu",
                warm.jobs.size(), static_cast<unsigned long long>(warm.shm_hits),
                static_cast<unsigned long long>(warm.disk_hits),
                static_cast<unsigned long long>(warm.compiles),
                static_cast<unsigned long long>(warm.installs));
  }
  std::printf("}, ");
  std::printf("\"host\": {\"cpu\": %s, \"isa_level\": %s, \"nproc\": %ld, "
              "\"llvm\": %s, \"native_ns_per_elem\": %.4f}, ",
              JsonString(CpuModel()).c_str(),
              JsonString(support::IsaLevelName(support::EffectiveIsaLevel())).c_str(),
              sysconf(_SC_NPROCESSORS_ONLN),
              JsonString(lift::LlvmVersionString()).c_str(), HostNativeNsPerElem(win));
  auto print_metrics = [](const char* key, const Metrics& ms) {
    std::printf("\"%s\": {", key);
    bool first = true;
    for (const auto& [name, metric] : ms) {
      std::printf("%s%s: [%.9g, %s, %zu]", first ? "" : ", ",
                  JsonString(name).c_str(), metric.value,
                  JsonString(metric.unit).c_str(), metric.n);
      first = false;
    }
    std::printf("}");
  };
  print_metrics("absolute", absolute);
  std::printf(", ");
  print_metrics("metrics", metrics);
  std::printf("}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
