"""Time units of the reliability model, in a module that imports nothing.

:mod:`repro.raid.reliability` re-exports :data:`HOURS_PER_YEAR`; the
campaign observers (:mod:`repro.obs.report`, :mod:`repro.obs.monitor`)
import it from here, so the service's start-up and HTTP request path
convert drive-hours without loading numpy (DESIGN section 17).
"""

#: Hours in a (365-day) year, the fleet layer's time unit conversion.
HOURS_PER_YEAR = 8760.0
