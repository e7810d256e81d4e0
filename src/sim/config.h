/**
 * @file
 * Ready-made system configurations: the Table-1 SMT and the
 * resource-equivalent out-of-order superscalar baseline.
 */

#ifndef SMTOS_SIM_CONFIG_H
#define SMTOS_SIM_CONFIG_H

#include <cstdint>

#include "core/context.h"
#include "kernel/kernel.h"
#include "mem/hierarchy.h"

namespace smtos {

/** Everything needed to instantiate a System. */
struct MachineConfig
{
    CoreParams core;
    HierarchyParams mem;
    Kernel::Params kernel;
    /** Chip width: number of SMT cores sharing the L2 (1 = the
     *  paper's machine). */
    int cores = 1;
};

/** The paper's 8-context SMT (Table 1). */
MachineConfig smtConfig();

/**
 * The out-of-order superscalar baseline: identical resources, one
 * hardware context, two fewer pipeline stages.
 */
MachineConfig superscalarConfig();

} // namespace smtos

#endif // SMTOS_SIM_CONFIG_H
