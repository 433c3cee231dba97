package org.apache.spark

/** The one Spark-internal call the benchmark needs: listener events are
  * delivered asynchronously, so per-layer counts are read only after the
  * listener bus has drained. */
object PerfbenchAccess {
  def waitForListeners(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
