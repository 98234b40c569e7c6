#include "stamp.hh"

#include <dirent.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common/build_info.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

using killi::Json;

namespace perfbench
{

namespace
{

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos) {
                std::string model = line.substr(colon + 1);
                model.erase(0, model.find_first_not_of(" \t"));
                return model;
            }
        }
    }
    return "unknown";
}

/** Value of a "Key:   N kB" line of /proc/<pid>/status, in kB. */
long
statusKb(pid_t pid, const std::string &key)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(key + ":", 0) == 0)
            return std::atol(line.c_str() + key.size() + 1);
    }
    return 0;
}

} // namespace

Json
hostBuildStamp()
{
    const std::string buildType = PERFBENCH_BUILD_TYPE;
#ifdef KILLI_CHECK_INVARIANTS
    const bool invariants = true;
#else
    const bool invariants = false;
#endif
#ifdef KILLI_TRACE_CATEGORIES
    const std::string traceCats = KILLI_TRACE_CATEGORIES;
#else
    const std::string traceCats = "";
#endif
    std::string why;
    if (buildType == "Debug" || buildType.empty())
        why = "build type '" + buildType + "' is not optimized";
    if (invariants)
        why += std::string(why.empty() ? "" : "; ") +
               "KILLI_CHECK_INVARIANTS is compiled in";

    Json doc = Json::object();
    doc.set("nproc",
            Json::number(std::uint64_t(std::thread::hardware_concurrency())));
    doc.set("cpu_model", Json::string(cpuModel()));
    doc.set("build_type", Json::string(buildType));
    doc.set("check_invariants", Json::boolean(invariants));
    doc.set("trace_categories", Json::string(traceCats));
    doc.set("build_id", Json::string(killi::buildId()));
    doc.set("comparable", Json::boolean(why.empty()));
    if (!why.empty())
        doc.set("not_comparable_because", Json::string(why));
    return doc;
}

double
peakRssMb(pid_t pid)
{
    return double(statusKb(pid, "VmHWM")) * 1024.0 / 1e6;
}

std::vector<pid_t>
childrenOf(pid_t pid)
{
    std::vector<pid_t> out;
    DIR *dir = opendir("/proc");
    if (!dir)
        return out;
    while (const dirent *ent = readdir(dir)) {
        const pid_t child = pid_t(std::atol(ent->d_name));
        if (child <= 0)
            continue;
        std::ifstream in("/proc/" + std::to_string(child) + "/stat");
        std::string stat;
        std::getline(in, stat);
        // "pid (comm) state ppid ...": comm may hold spaces, so
        // parse from the last ')'.
        const std::size_t close = stat.rfind(')');
        if (close == std::string::npos)
            continue;
        std::istringstream rest(stat.substr(close + 1));
        char state = 0;
        long ppid = 0;
        rest >> state >> ppid;
        if (ppid == pid && state != 'Z')
            out.push_back(child);
    }
    closedir(dir);
    return out;
}

} // namespace perfbench
