#include "common/stats.h"

namespace noreba {

double
geomean(const std::vector<double> &values)
{
    Geomean g;
    for (double v : values)
        g.sample(v);
    return g.value();
}

} // namespace noreba
