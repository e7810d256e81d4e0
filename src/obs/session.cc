#include "obs/session.h"

#include <iostream>

#include "common/logging.h"
#include "obs/profiler.h"
#include "obs/reqtrace.h"
#include "obs/timeline.h"
#include "sim/export.h"
#include "sim/system.h"

namespace smtos {

ObsSession::ObsSession(const ObsConfig &cfg) : cfg_(cfg)
{
    if (cfg_.profile)
        profiler_ = std::make_unique<CycleProfiler>();
    if (!cfg_.timelinePath.empty()) {
        std::ostream *os = openSink(cfg_.timelinePath, timelineFile_);
        timeline_ = std::make_unique<TimelineExporter>(
            *os, cfg_.timelineDetail);
    }
    if (cfg_.intervalCycles > 0) {
        if (!cfg_.intervalJsonlPath.empty())
            jsonlOs_ = openSink(cfg_.intervalJsonlPath, jsonlFile_);
        if (!cfg_.intervalCsvPath.empty())
            csvOs_ = openSink(cfg_.intervalCsvPath, csvFile_);
        if (!jsonlOs_ && !csvOs_)
            jsonlOs_ = &std::cout;
    }
    if (cfg_.reqtrace || !cfg_.reqtraceFilePath.empty()) {
        cfg_.reqtrace = true;
        reqtrace_ = std::make_unique<RequestTracer>();
        reqtrace_->bindTimeline(timeline_.get());
        if (!cfg_.reqtraceFilePath.empty()) {
            spanOs_ = openSink(cfg_.reqtraceFilePath, spanFile_);
            reqtrace_->setSpanSink(spanOs_);
        }
    }
    probes_.bind(profiler_.get(), timeline_.get(), reqtrace_.get());
}

ObsSession::~ObsSession()
{
    finish();
}

std::ostream *
ObsSession::openSink(const std::string &path, std::ofstream &file)
{
    if (path == "-")
        return &std::cout;
    file.open(path);
    if (!file)
        smtos_panic("obs: cannot open output file '%s'", path.c_str());
    return &file;
}

bool
ObsSession::wantsIntervals() const
{
    return cfg_.intervalCycles > 0 && (jsonlOs_ || csvOs_);
}

void
ObsSession::attach(System &sys)
{
    smtos_assert(!attached_);
    attached_ = true;
    const CoreParams &p = sys.config().core;
    // Per-context sink state is indexed by global context id, so it
    // is sized chip-wide.
    const int nctx = p.numContexts * sys.numCores();
    if (profiler_)
        profiler_->configure(p.fetchWidth, p.intUnits + p.fpUnits,
                             nctx);
    probes_.begin(nctx);
    sys.attachProbes(&probes_);
}

void
ObsSession::interval(int index, Cycle c0, Cycle c1,
                     const MetricsSnapshot &delta)
{
    if (jsonlOs_) {
        *jsonlOs_ << "{\"interval\":" << index
                  << ",\"cycle_start\":" << c0
                  << ",\"cycle_end\":" << c1 << ",";
        writeJsonFields(*jsonlOs_, delta);
        *jsonlOs_ << "}\n";
    }
    if (csvOs_)
        writeCsvRow(*csvOs_, std::to_string(index), delta,
                    index == 0);
}

void
ObsSession::finish()
{
    if (finished_)
        return;
    finished_ = true;
    probes_.finish();
    if (jsonlOs_)
        jsonlOs_->flush();
    if (csvOs_)
        csvOs_->flush();
    if (spanOs_)
        spanOs_->flush();
    if (profiler_) {
        if (cfg_.reportPath.empty()) {
            profiler_->writeReport(std::cerr);
        } else if (cfg_.reportPath == "-") {
            profiler_->writeReport(std::cout);
        } else {
            std::ofstream rf(cfg_.reportPath);
            if (!rf)
                smtos_panic("obs: cannot open report file '%s'",
                            cfg_.reportPath.c_str());
            profiler_->writeReport(rf);
        }
    }
}

} // namespace smtos
