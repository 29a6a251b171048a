#include "sim/experiment.hh"

#include <cstdlib>
#include <future>
#include <map>
#include <tuple>

#include "common/log.hh"
#include "resilience/error.hh"
#include "workloads/profiles.hh"

namespace ccsim::sim {

std::uint64_t
envU64(const char *name, std::uint64_t def)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return def;
    char *end = nullptr;
    std::uint64_t parsed = std::strtoull(v, &end, 10);
    if (end == v || *end != '\0')
        throw resilience::SimError(
            resilience::ErrorKind::InvalidConfig,
            std::string("environment variable ") + name + "='" + v +
                "' is not an integer");
    return parsed;
}

double
envF64(const char *name, double def)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return def;
    char *end = nullptr;
    double parsed = std::strtod(v, &end);
    if (end == v || *end != '\0')
        throw resilience::SimError(
            resilience::ErrorKind::InvalidConfig,
            std::string("environment variable ") + name + "='" + v +
                "' is not a number");
    return parsed;
}

ExpScale
expScale()
{
    ExpScale s;
    s.insts = envU64("CCSIM_INSTS", s.insts);
    s.warmup = envU64("CCSIM_WARMUP", s.warmup);
    return s;
}

SimConfig
makeSingleConfig(Scheme scheme, const ExpScale &scale)
{
    SimConfig cfg = SimConfig::singleCore();
    cfg.scheme = scheme;
    cfg.targetInsts = scale.insts;
    cfg.warmupInsts = scale.warmup;
    cfg.finalizeChargeCache();
    return cfg;
}

SimConfig
makeEightConfig(Scheme scheme, const ExpScale &scale)
{
    SimConfig cfg = SimConfig::eightCore();
    cfg.scheme = scheme;
    cfg.targetInsts = scale.insts;
    cfg.warmupInsts = scale.warmup;
    cfg.finalizeChargeCache();
    return cfg;
}

SystemResult
runSingle(const std::string &workload, Scheme scheme,
          const ConfigTweak &tweak)
{
    SimConfig cfg = makeSingleConfig(scheme, expScale());
    if (tweak)
        tweak(cfg);
    System system(cfg, std::vector<std::string>{workload});
    return system.run();
}

SystemResult
runMix(int mix_id, Scheme scheme, const ConfigTweak &tweak)
{
    SimConfig cfg = makeEightConfig(scheme, expScale());
    if (tweak)
        tweak(cfg);
    System system(cfg, workloads::mixWorkloads(mix_id, cfg.nCores));
    return system.run();
}

double
aloneIpc(const std::string &workload)
{
    // Shared_future memo keyed on every input of the alone run: the
    // first caller computes (off the lock), concurrent callers for the
    // same key wait on the same future instead of duplicating the
    // simulation.
    using Key = std::tuple<std::string, std::uint64_t, std::uint64_t>;
    static std::mutex memo_mutex;
    static std::map<Key, std::shared_future<double>> memo;

    const ExpScale scale = expScale();
    const Key key{workload, scale.insts, scale.warmup};
    std::packaged_task<double()> task;
    std::shared_future<double> result;
    {
        std::lock_guard<std::mutex> lock(memo_mutex);
        auto it = memo.find(key);
        if (it != memo.end()) {
            result = it->second;
        } else {
            task = std::packaged_task<double()>([workload] {
                return runSingle(workload, Scheme::Baseline).ipc.at(0);
            });
            result = task.get_future().share();
            memo.emplace(key, result);
        }
    }
    if (task.valid())
        task();
    return result.get();
}

// ---------------------------------------------------------------------
// ParallelRunner

int
ParallelRunner::defaultThreads()
{
    std::uint64_t env = envU64("CCSIM_THREADS", 0);
    if (env > 0)
        return static_cast<int>(env);
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

ParallelRunner::ParallelRunner(int threads)
{
    if (threads <= 0)
        threads = defaultThreads();
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ParallelRunner::~ParallelRunner()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    workCv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ParallelRunner::enqueue(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        CCSIM_ASSERT(!stop_, "enqueue after shutdown");
        queue_.push_back(std::move(job));
    }
    workCv_.notify_one();
}

void
ParallelRunner::waitAll()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idleCv_.wait(lock,
                 [this] { return queue_.empty() && inFlight_ == 0; });
    if (firstError_) {
        std::exception_ptr err = firstError_;
        firstError_ = nullptr;
        std::rethrow_exception(err);
    }
}

void
ParallelRunner::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        workCv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty())
            return; // stop_ and drained.
        std::function<void()> job = std::move(queue_.front());
        queue_.pop_front();
        ++inFlight_;
        lock.unlock();
        std::exception_ptr err;
        try {
            job();
        } catch (...) {
            err = std::current_exception();
        }
        lock.lock();
        --inFlight_;
        if (err && !firstError_)
            firstError_ = err;
        if (queue_.empty() && inFlight_ == 0)
            idleCv_.notify_all();
    }
}

std::vector<SystemResult>
runSweep(std::size_t n, const std::function<SystemResult(std::size_t)> &point,
         int threads)
{
    std::vector<SystemResult> results(n);
    ParallelRunner pool(threads);
    for (std::size_t i = 0; i < n; ++i)
        pool.enqueue([i, &point, &results] { results[i] = point(i); });
    pool.waitAll();
    return results;
}

double
weightedSpeedup(const std::vector<std::string> &mix,
                const std::vector<double> &ipc_shared)
{
    CCSIM_ASSERT(mix.size() == ipc_shared.size(),
                 "mix/IPC size mismatch");
    double ws = 0.0;
    for (size_t i = 0; i < mix.size(); ++i)
        ws += ipc_shared[i] / aloneIpc(mix[i]);
    return ws;
}

} // namespace ccsim::sim
