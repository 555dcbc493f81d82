#include "common/fs.h"

#include <cerrno>

#include <sys/stat.h>

namespace noreba {

bool
ensureDir(const std::string &dir)
{
    std::string partial;
    for (size_t i = 0; i <= dir.size(); ++i) {
        if (i < dir.size() && dir[i] != '/') {
            partial.push_back(dir[i]);
            continue;
        }
        if (i < dir.size())
            partial.push_back('/');
        if (partial.empty() || partial == "/")
            continue;
        if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST)
            return false;
    }
    struct stat st;
    return ::stat(dir.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

} // namespace noreba
